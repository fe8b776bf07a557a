"""Truncated-Fock-space simulation of the interferometer.

This module is the independent ground truth for the coherent pair-sum engine:
it expands the inputs in the two-mode number basis, applies the beam
splitters block-by-block in total photon number, and reads out the port-a
photon distribution.  It must not import the engine or the closed forms; only
the state definitions are shared.

Both arms lose photons through the same (t, r), and uniform loss commutes
with passive linear optics, so :func:`simulate` runs the lossless pipeline
and applies loss as binomial thinning of the port-a count.  The tests check
that identity against a per-arm Kraus channel on an explicit density matrix.

The state is held in one shell layout: S[N, n_a] is the amplitude of
|n_a, N - n_a>, zero for n_a > N, so row N is the N-photon shell.  The
N-photon splitter block is i^j R[j, n] i^n with R a real Kravchuk matrix
(Campos, Saleh & Teich, Phys. Rev. A 40, 1371, 1989).  R is built from exact
integer coefficients of (1-x)^n (1+x)^(N-n) (iterated multiply/divide, no
matrix exponentiation), so each block stays unitary to machine precision even
at large photon number.  The diagonal phases fold away: :func:`encode` applies
the first splitter's i^n, the i^j after it, the phase e^{i j phi} and the i^n
before the second splitter are one multiply by (-1)^j e^{i j phi}, and the
last i^j is dropped because only |S|^2 is read.  What is left of each splitter
is R, applied in place to the (re, im) pairs of GROUP consecutive shells at a
time as one batched real matmul; each group's blocks are cached as one stack,
zero-padded to the group's widest shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .interferometer import MziConfig, _check_cutoff
from .states import SuperposedState

ENCODE_TAIL_LIMIT = 1e-10

# shells per batched splitter matmul: on the verify workload 4 and 8 ran fastest, ahead of 1 and 2, and
# 4 pads the stacks of shells 0..101 to 3.17 MB (8: 3.35 MB) against 2.87 MB for the blocks alone
GROUP = 4

_PHASES = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


class CutoffTooSmall(ValueError, ArithmeticError):
    """The requested truncation drops more probability than allowed."""


@dataclass(frozen=True)
class FockVector:
    """Two-mode pure state in the shell layout, with the first splitter's i^(n_a) folded in.

    amplitudes[N, n_a] is i^(n_a) times the amplitude of |n_a, N - n_a> for
    N <= cutoff, and zero for n_a > N.
    """

    amplitudes: np.ndarray  # (cutoff+1, cutoff+1), zero above the diagonal
    tail_bound: float


@dataclass(frozen=True)
class OracleResult:
    probs: np.ndarray  # P(n) at port a for n = 0..cutoff
    parity: float
    zero: float
    tail_bound: float


@lru_cache(maxsize=None)
def _lgamma_table(limit: int) -> np.ndarray:
    """log(l!) for l = 0..limit, cached and read-only."""
    table = np.array([math.lgamma(l + 1) for l in range(limit + 1)])
    table.flags.writeable = False
    return table


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Number-basis coefficients e^{-|alpha|^2/2} alpha^l / sqrt(l!), l = 0..cutoff, on a last axis after alpha's."""
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    ls, mod = np.arange(cutoff + 1), np.abs(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):  # alpha = 0: log 0 = -inf, so exp gives 0 for l >= 1
        logmag = -0.5 * mod**2 + ls * np.log(mod) - 0.5 * _lgamma_table(cutoff)
    logmag[..., 0] = -0.5 * mod[..., 0] ** 2  # the l = 0 term of every alpha, in place of alpha = 0's nan
    return np.exp(logmag + 1j * ls * np.angle(alpha))


def default_cutoff(state_a: SuperposedState, state_b: SuperposedState) -> int:
    """Total-photon truncation leaving a negligible tail for the input product."""
    total = float(np.max(np.abs(state_a.amplitudes) ** 2)) + float(np.max(np.abs(state_b.amplitudes) ** 2))
    return int(math.ceil(total + 10.0 * math.sqrt(total) + 10.0))


def encode(state_a: SuperposedState, state_b: SuperposedState, cutoff: int) -> FockVector:
    """Shell-layout expansion of the input product state, times the first splitter's i^(n_a)."""
    ns, k = np.arange(cutoff + 1), len(state_a.weights)
    # the coherent expansions of both inputs' terms in one call, weighted, then summed per input
    terms = np.concatenate([state_a.weights, state_b.weights])[:, None] * coherent_amplitudes(
        np.concatenate([state_a.amplitudes, state_b.amplitudes]), cutoff
    )
    # b padded with cutoff zeros, so the negative index N - n_a of an entry above the diagonal reads one of them
    b = np.concatenate([np.sum(terms[k:], axis=0), np.zeros(cutoff, dtype=complex)])
    shells = (np.sum(terms[:k], axis=0) * _PHASES[ns % 4]) * b[ns[:, None] - ns]
    tail = max(0.0, 1.0 - float(np.sum(shells.real**2 + shells.imag**2)))
    if tail > ENCODE_TAIL_LIMIT:
        raise CutoffTooSmall(f"norm deficit {tail:.3e} at cutoff {cutoff}")
    return FockVector(amplitudes=shells, tail_bound=tail)


def _kravchuk_block(total: int) -> np.ndarray:
    """Real part R of the N-photon splitter block B[j, n] = i^j R[j, n] i^n.

    R[j, n] = F_n(j) 2^(-N/2) sqrt(j!(N-j)! / (n!(N-n)!)) with F_n(j) the x^j
    coefficient of (1-x)^n (1+x)^(N-n), carried exactly in integers.
    """
    rows = [[math.comb(total, j) for j in range(total + 1)]]
    for _ in range(total):
        mult = [c - d for c, d in zip(rows[-1] + [0], [0] + rows[-1])]  # times (1 - x)
        quot = list(accumulate(mult[:-1], lambda q, m: m - q))  # divided by (1 + x)
        if mult[-1] != quot[-1]:
            raise ArithmeticError("inexact polynomial division in splitter block")
        rows.append(quot)
    lg = _lgamma_table(total)
    j, n = np.arange(total + 1)[:, None], np.arange(total + 1)[None, :]
    scale = np.exp(-0.5 * total * math.log(2.0) + 0.5 * (lg[j] + lg[total - j] - lg[n] - lg[total - n]))
    return np.multiply(scale, np.array(rows, dtype=float).T, out=scale)


@lru_cache(maxsize=None)
def _block_stack(group: int) -> np.ndarray:
    """R of shells GROUP*group .. GROUP*group + GROUP-1, each zero-padded to the last one's width, stacked."""
    width = GROUP * (group + 1)
    stack = np.zeros((GROUP, width, width))
    for k, total in enumerate(range(width - GROUP, width)):
        stack[k, : total + 1, : total + 1] = _kravchuk_block(total)
    return stack


def _apply_splitter(shells: np.ndarray) -> None:
    """Apply R to each shell (row) of shells[N, n_a] in place, one batched matmul per GROUP shells."""
    pairs = shells.view(float).reshape(*shells.shape, 2)  # (re, im) of each entry
    size = len(shells)
    for start in range(0, size, GROUP):
        width = min(start + GROUP, size)  # entries beyond shell start+GROUP-1 are zero
        part = pairs[start:width, :width]
        part[...] = _block_stack(start // GROUP)[: len(part), :width, :width] @ part


def _thin(probs: np.ndarray, loss_t: float, loss_r: float) -> np.ndarray:
    """Photon count after pure loss: P'(n) = sum_m C(m, n) t^(2n) r^(2(m-n)) P(m)."""
    if loss_r == 0.0:
        return probs  # the kernel is exactly the identity
    ns = np.arange(len(probs))
    ms = ns + ns[:, None]  # m, row m - n, column n
    # C(m, n) t^(2n) r^(2(m-n)) is t^(2n) times the running product of r^2 m/(m-n) down column n; every
    # product is a binomial probability, so none overflows
    kernel = ms * (loss_r**2 / np.maximum(ns, 1))[:, None]
    kernel[0] = (loss_t**2) ** ns
    np.cumprod(kernel, axis=0, out=kernel)
    # P(m) read at every m, zero beyond the cutoff
    return np.einsum("dn,dn->n", kernel, np.concatenate([probs, np.zeros(len(probs) - 1)])[ms])


def _result(probs: np.ndarray, tail_bound: float) -> OracleResult:
    signs = np.where(np.arange(len(probs)) % 2 == 0, 1.0, -1.0)
    return OracleResult(
        probs=probs,
        parity=min(max(float(signs @ probs), -1.0), 1.0),  # the probabilities may sum to 1 + a rounding
        zero=float(probs[0]),
        tail_bound=tail_bound,
    )


def simulate(
    state_a: SuperposedState,
    state_b: SuperposedState,
    config: MziConfig,
    cutoff: int | None = None,
) -> OracleResult:
    """Full pipeline: splitter, phase, splitter, port-a marginal (a column sum of |S|^2), then loss.

    The loss splitters of the two arms share one (t, r).  Equal loss on both
    modes commutes with the passive second splitter (Oszmaniec & Brod, New J.
    Phys. 20, 092002, 2018), so it acts on port a after the splitter, where
    tracing port b and the environment leaves binomial thinning of the
    lossless photon count.  Unequal arm losses would not commute this way.
    """
    cutoff = default_cutoff(state_a, state_b) if cutoff is None else _check_cutoff(cutoff)
    vec = encode(state_a, state_b, cutoff)
    shells = vec.amplitudes  # vec is local, so the splitters may overwrite its array
    _apply_splitter(shells)
    ns = np.arange(cutoff + 1)
    shells *= np.where(ns % 2 == 0, 1.0, -1.0) * np.exp(1j * config.phi * ns)
    _apply_splitter(shells)
    probs = _thin(np.sum(shells.real**2 + shells.imag**2, axis=0), config.loss_t, config.loss_r)
    return _result(probs, vec.tail_bound)
