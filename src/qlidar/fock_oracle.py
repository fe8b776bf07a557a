"""Truncated-Fock-space simulation of the interferometer.

This module is the independent ground truth for the coherent pair-sum engine:
it expands the inputs in the two-mode number basis, applies the beam
splitters block-by-block in total photon number, and reads out the port-a
photon distribution.  It must not import the engine or the closed forms; only
the state definitions are shared.

Both arms lose photons through the same (t, r), and uniform loss commutes
with passive linear optics, so :func:`simulate` runs the lossless pipeline
and applies loss as binomial thinning of the port-a count.
:func:`simulate_density` keeps the per-arm single-mode Kraus channel on an
explicit density matrix as an independent cross-check of that identity.

Beam-splitter blocks are built from exact integer coefficients of
(1-x)^n (1+x)^(N-n) (iterated multiply/divide, no matrix exponentiation), so
each block stays unitary to machine precision even at large photon number.
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


class CutoffTooSmall(ValueError):
    """The requested truncation drops more probability than allowed."""


@dataclass(frozen=True)
class FockVector:
    """Two-mode pure state on the triangle n_a + n_b <= cutoff."""

    cutoff: int
    amplitudes: np.ndarray  # (cutoff+1, cutoff+1), zero beyond the triangle
    tail_bound: float


@dataclass(frozen=True)
class FockDensity:
    """Two-mode density operator rho[n_a, n_b, m_a, m_b] on the same triangle."""

    cutoff: int
    matrix: np.ndarray

    def trace(self) -> float:
        return float(np.einsum("abab->", self.matrix).real)


@dataclass(frozen=True)
class OracleResult:
    probs: np.ndarray  # P(n) at port a for n = 0..cutoff
    parity: float
    zero: float
    tail_bound: float


@lru_cache(maxsize=None)
def _lgamma_cache(limit: int) -> tuple:
    return tuple(math.lgamma(l + 1) for l in range(limit + 1))


def _lgamma_table(limit: int) -> np.ndarray:
    return np.array(_lgamma_cache(limit))


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


def encode(state_a: SuperposedState, state_b: SuperposedState, cutoff: int) -> FockVector:
    """Two-mode number-basis expansion of the input product state."""
    if not (state_a.normalized and state_b.normalized):
        raise ValueError("encode requires normalized input states")
    psi = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for wa, a in zip(state_a.weights.tolist(), state_a.amplitudes.tolist()):
        ca = coherent_amplitudes(a, cutoff)
        for wb, b in zip(state_b.weights.tolist(), state_b.amplitudes.tolist()):
            psi += (wa * wb) * np.outer(ca, coherent_amplitudes(b, cutoff))
    ns = np.arange(cutoff + 1)
    psi[ns[:, None] + ns[None, :] > cutoff] = 0.0
    tail = max(0.0, 1.0 - float(np.sum(np.abs(psi) ** 2)))
    if tail > ENCODE_TAIL_LIMIT:
        raise CutoffTooSmall(f"norm deficit {tail:.3e} at cutoff {cutoff}")
    return FockVector(cutoff=cutoff, amplitudes=psi, tail_bound=tail)


@lru_cache(maxsize=None)
def _bs_block(total: int) -> np.ndarray:
    """Unitary of the 50:50 splitter on the N-photon subspace.

    Entry [j, n] is <j, N-j|U|n, N-n> = i^(n+j) F_n(j) 2^(-N/2)
    sqrt(j!(N-j)! / (n!(N-n)!)) with F_n(j) the x^j coefficient of
    (1-x)^n (1+x)^(N-n), carried exactly in integers.
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
    block = np.zeros((total + 1, total + 1), dtype=complex)
    log2 = math.log(2.0)
    for n in range(total + 1):
        coeffs = rows[n]
        for j in range(total + 1):
            f = coeffs[j]
            if f == 0:
                continue
            scale = math.exp(-0.5 * total * log2 + 0.5 * (lg[j] + lg[total - j] - lg[n] - lg[total - n]))
            block[j, n] = _PHASES[(n + j) % 4] * (float(f) * scale)
    return block


def _apply_beam_splitter(psi: np.ndarray, cutoff: int) -> np.ndarray:
    """Apply the splitter on the last two axes (n_a, n_b), block by block."""
    out = np.zeros_like(psi)
    for total in range(cutoff + 1):
        idx = np.arange(total + 1)
        out[..., idx, total - idx] = psi[..., idx, total - idx] @ _bs_block(total).T
    return out


def _apply_phase(psi: np.ndarray, cutoff: int, phi: float) -> np.ndarray:
    phase = np.exp(1j * phi * np.arange(cutoff + 1))
    return psi * phase[:, None]


def _kraus_factor(k: int, loss_r: float, length: int) -> np.ndarray:
    """K_k amplitude on the output index n: sqrt(C(n+k, k)) t^n r^k."""
    t = math.sqrt(max(0.0, 1.0 - loss_r**2))
    n = np.arange(length)
    lg = _lgamma_table(length - 1 + k)
    logc = 0.5 * (lg[n + k] - lg[n] - lg[k])
    logt = n * math.log(t) if t > 0 else np.where(n == 0, 0.0, -np.inf)
    logr = k * math.log(loss_r) if loss_r > 0 else (0.0 if k == 0 else -math.inf)
    return np.exp(logc + logt + logr)


def loss_channel(rho: FockDensity, arm: str, loss_r: float) -> FockDensity:
    """Pure-loss channel with transmissivity t^2 = 1 - loss_r^2 on one arm."""
    if arm not in ("a", "b"):
        raise ValueError("arm must be 'a' or 'b'")
    if not 0.0 <= loss_r < 1.0:
        raise ValueError("loss_r must lie in [0, 1)")
    if loss_r == 0.0:
        return rho
    cutoff = rho.cutoff
    out = np.zeros_like(rho.matrix)
    for k in range(cutoff + 1):
        n = cutoff + 1 - k
        fac = _kraus_factor(k, loss_r, n)
        if arm == "a":
            seg = rho.matrix[k:, :, k:, :]
            out[:n, :, :n, :] += seg * fac[:, None, None, None] * fac[None, None, :, None]
        else:
            seg = rho.matrix[:, k:, :, k:]
            out[:, :n, :, :n] += seg * fac[None, :, None, None] * fac[None, None, None, :]
    return FockDensity(cutoff=cutoff, matrix=out)


def _apply_bs_density(matrix: np.ndarray, cutoff: int) -> np.ndarray:
    """U rho U^dag on a 4-axis density array (ket axes 0,1; bra axes 2,3)."""
    ket = np.transpose(matrix, (2, 3, 0, 1))
    ket = _apply_beam_splitter(ket, cutoff)
    matrix = np.transpose(ket, (2, 3, 0, 1))
    return np.conj(_apply_beam_splitter(np.conj(matrix), cutoff))


def _thin(probs: np.ndarray, loss_t: float, loss_r: float) -> np.ndarray:
    """Photon count after pure loss: P'(n) = sum_m C(m, n) t^(2n) r^(2(m-n)) P(m).

    At r = 0 the kernel is the identity, since 0.0 ** 0 == 1.
    """
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
    psi = _apply_beam_splitter(vec.amplitudes, cutoff)
    psi = _apply_phase(psi, cutoff, config.phi)
    psi = _apply_beam_splitter(psi, cutoff)
    probs = _thin(np.sum(np.abs(psi) ** 2, axis=1), config.loss_t, config.loss_r)
    return _result(probs, vec.tail_bound)


def simulate_density(
    state_a: SuperposedState,
    state_b: SuperposedState,
    config: MziConfig,
    cutoff: int | None = None,
) -> OracleResult:
    """Per-arm Kraus loss on an explicit density matrix; cross-check path only."""
    if cutoff is None:
        cutoff = default_cutoff(state_a, state_b)
    vec = encode(state_a, state_b, cutoff)
    psi = _apply_beam_splitter(vec.amplitudes, cutoff)
    psi = _apply_phase(psi, cutoff, config.phi)
    rho = FockDensity(cutoff=cutoff, matrix=np.einsum("ab,cd->abcd", psi, np.conj(psi)))
    rho = loss_channel(rho, "a", config.loss_r)
    rho = loss_channel(rho, "b", config.loss_r)
    final = _apply_bs_density(rho.matrix, cutoff)
    return _result(np.einsum("abab->a", final).real, vec.tail_bound)
