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

The N-photon splitter block is i^j R[j, n] i^n with R a real Kravchuk matrix
(Campos, Saleh & Teich, Phys. Rev. A 40, 1371, 1989).  R is built from exact
integer coefficients of (1-x)^n (1+x)^(N-n) (iterated multiply/divide, no
matrix exponentiation), so each block stays unitary to machine precision even
at large photon number.  Only R is cached; the splitter gathers the triangle
into shell-major order once, applies the i^n phases, and does one real matmul
per shell on the (re, im) pairs of a contiguous slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interferometer import MziConfig
from .states import SuperposedState

ENCODE_TAIL_LIMIT = 1e-10

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class CutoffTooSmall(ValueError, ArithmeticError):
    """The requested truncation drops more probability than allowed."""


@dataclass(frozen=True)
class FockVector:
    """Two-mode pure state on the triangle n_a + n_b <= cutoff."""

    amplitudes: np.ndarray  # (cutoff+1, cutoff+1), zero beyond the triangle
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


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis coefficients e^{-|alpha|^2/2} alpha^l / sqrt(l!)."""
    alpha = complex(alpha)
    out = np.zeros(cutoff + 1, dtype=complex)
    if alpha == 0:
        out[0] = 1.0
        return out
    ls = np.arange(cutoff + 1)
    logmag = -0.5 * abs(alpha) ** 2 + ls * math.log(abs(alpha)) - 0.5 * _lgamma_table(cutoff)
    return np.exp(logmag + 1j * ls * np.angle(alpha))


def default_cutoff(state_a: SuperposedState, state_b: SuperposedState) -> int:
    """Total-photon truncation leaving a negligible tail for the input product."""
    na = float(np.max(np.abs(state_a.amplitudes) ** 2))
    nb = float(np.max(np.abs(state_b.amplitudes) ** 2))
    total = na + nb
    return int(math.ceil(total + 10.0 * math.sqrt(total) + 10.0))


def _expansion(state: SuperposedState, cutoff: int) -> np.ndarray:
    return sum(w * coherent_amplitudes(a, cutoff) for w, a in zip(state.weights.tolist(), state.amplitudes.tolist()))


def encode(state_a: SuperposedState, state_b: SuperposedState, cutoff: int) -> FockVector:
    """Two-mode number-basis expansion of the input product state."""
    # the input is a product state, so psi is one outer product of the two single-mode expansions
    psi = np.outer(_expansion(state_a, cutoff), _expansion(state_b, cutoff))
    ns = np.arange(cutoff + 1)
    psi[ns[:, None] + ns[None, :] > cutoff] = 0.0
    tail = max(0.0, 1.0 - float(np.sum(np.abs(psi) ** 2)))
    if tail > ENCODE_TAIL_LIMIT:
        raise CutoffTooSmall(f"norm deficit {tail:.3e} at cutoff {cutoff}")
    return FockVector(amplitudes=psi, tail_bound=tail)


@lru_cache(maxsize=None)
def _kravchuk_block(total: int) -> np.ndarray:
    """Real part R of the N-photon splitter block B[j, n] = i^j R[j, n] i^n.

    R[j, n] = F_n(j) 2^(-N/2) sqrt(j!(N-j)! / (n!(N-n)!)) with F_n(j) the x^j
    coefficient of (1-x)^n (1+x)^(N-n), carried exactly in integers.
    """
    rows = [[math.comb(total, j) for j in range(total + 1)]]
    for _ in range(total):
        prev = rows[-1]
        mult = [0] * (total + 2)
        for j, c in enumerate(prev):
            mult[j] += c
            mult[j + 1] -= c
        quot = [0] * (total + 1)
        quot[0] = mult[0]
        for j in range(1, total + 1):
            quot[j] = mult[j] - quot[j - 1]
        if mult[total + 1] - quot[total] != 0:
            raise ArithmeticError("inexact polynomial division in splitter block")
        rows.append(quot)
    lg = _lgamma_table(total)
    j, n = np.arange(total + 1)[:, None], np.arange(total + 1)[None, :]
    scale = np.exp(-0.5 * total * math.log(2.0) + 0.5 * (lg[j] + lg[total - j] - lg[n] - lg[total - n]))
    # in place, so the cached block keeps the scale's buffer: a fresh one per block fragments the heap (+1 MB RSS)
    return np.multiply(scale, np.array(rows, dtype=float).T, out=scale)


@lru_cache(maxsize=None)
def _shell_order(cutoff: int):
    """Flat (n_a, n_b) index of the triangle in shell-major order, and i^(n_a) at each entry."""
    totals, n_a = np.tril_indices(cutoff + 1)  # row-major: shell by shell, n_a rising within each
    return n_a * (cutoff + 1) + (totals - n_a), np.array(_PHASES)[n_a % 4]


def _apply_beam_splitter(psi: np.ndarray) -> np.ndarray:
    """Apply the splitter to psi[n_a, n_b], one real block matmul per shell."""
    cutoff = len(psi) - 1
    index, phase = _shell_order(cutoff)
    shells = psi.reshape(-1).take(index) * phase
    pairs = shells.view(float).reshape(len(index), 2)  # (re, im) of each entry, shells contiguous
    for total in range(cutoff + 1):
        part = slice(total * (total + 1) // 2, (total + 1) * (total + 2) // 2)
        pairs[part] = _kravchuk_block(total) @ pairs[part]
    out = np.zeros(psi.size, dtype=complex)
    out[index] = shells * phase
    return out.reshape(psi.shape)


def _apply_phase(psi: np.ndarray, phi: float) -> np.ndarray:
    return psi * np.exp(1j * phi * np.arange(len(psi)))[:, None]


def _thin(probs: np.ndarray, loss_t: float, loss_r: float) -> np.ndarray:
    """Photon count after pure loss: P'(n) = sum_m C(m, n) t^(2n) r^(2(m-n)) P(m)."""
    if loss_r == 0.0:
        return probs  # the kernel is exactly the identity
    ns = np.arange(len(probs))
    dropped = ns[None, :] - ns[:, None]  # m - n, row n, column m
    kept = np.maximum(dropped, 0)
    lg = _lgamma_table(len(probs) - 1)
    binom = np.exp(lg[ns][None, :] - lg[ns][:, None] - lg[kept])
    kernel = np.where(dropped >= 0, binom * (loss_t**2) ** ns[:, None] * (loss_r**2) ** kept, 0.0)
    return kernel @ probs


def _result(probs: np.ndarray, tail_bound: float) -> OracleResult:
    signs = np.where(np.arange(len(probs)) % 2 == 0, 1.0, -1.0)
    return OracleResult(
        probs=probs,
        parity=float(signs @ probs),
        zero=float(probs[0]),
        tail_bound=tail_bound,
    )


def simulate(
    state_a: SuperposedState,
    state_b: SuperposedState,
    config: MziConfig,
    cutoff: int | None = None,
) -> OracleResult:
    """Full pipeline: splitter, phase, splitter, port-a marginal, then loss.

    The loss splitters of the two arms share one (t, r).  Equal loss on both
    modes commutes with the passive second splitter (Oszmaniec & Brod, New J.
    Phys. 20, 092002, 2018), so it acts on port a after the splitter, where
    tracing port b and the environment leaves binomial thinning of the
    lossless photon count.  Unequal arm losses would not commute this way.
    """
    if cutoff is None:
        cutoff = default_cutoff(state_a, state_b)
    vec = encode(state_a, state_b, cutoff)
    psi = _apply_beam_splitter(vec.amplitudes)
    psi = _apply_phase(psi, config.phi)
    psi = _apply_beam_splitter(psi)
    probs = _thin(np.sum(np.abs(psi) ** 2, axis=1), config.loss_t, config.loss_r)
    return _result(probs, vec.tail_bound)
