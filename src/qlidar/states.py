"""Finite superpositions of coherent states.

Every input state of the interferometer (laser light, even cat states, the
four-component multi-photonic superpositions) is represented by two arrays,
weights and coherent amplitudes.  Normalization, overlaps and photon-number
moments are computed from the Gram matrix of the amplitude set, so one code
path serves every state kind; the per-kind closed forms live in
:mod:`qlidar.closedform` and are used only as regression checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

GRAM_DEGENERACY_THRESHOLD = 1e-12
IMAG_RESIDUE_TOL = 1e-12


class DegenerateState(ValueError, ArithmeticError):
    """Term list with numerically zero norm (e.g. MPS with j != 0 at alpha -> 0)."""


def _real_part(value, what: str):
    """Real part of a complex sum or of an array of sums that are finite with a small enough imaginary residue.

    The package's one residue check.  Each sum must be finite and may keep
    |imag| <= IMAG_RESIDUE_TOL * max(1, |real|); an array whose largest residue is within
    IMAG_RESIDUE_TOL and whose real parts are all finite passes without the per-element test,
    and otherwise raises as the call on its first offending element does.
    """
    if isinstance(value, np.ndarray):
        # NaN fails every comparison, so the pre-check asks for what passes
        if not (np.max(np.abs(value.imag), initial=0.0) <= IMAG_RESIDUE_TOL and np.isfinite(value.real).all()):
            bad = ~np.isfinite(value) | (np.abs(value.imag) > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(value.real)))
            if bad.any():
                _real_part(value.flat[np.argmax(bad)], what)
        return value.real
    if not cmath.isfinite(value):
        raise ArithmeticError(f"{what} is not finite: {complex(value)}")
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
        raise ArithmeticError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _coherent_arrays(weights, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Validated complex copies of matching, nonempty, finite 1-D weight and amplitude arrays."""
    w = np.array(weights, dtype=complex)
    a = np.array(amplitudes, dtype=complex)
    if w.ndim != 1 or w.shape != a.shape:
        raise ValueError("weights and amplitudes must be matching 1-D arrays")
    if not len(w):
        raise ValueError("state needs at least one term")
    if not (np.isfinite(w).all() and np.isfinite(a).all()):
        raise ValueError("weights and amplitudes must be finite")
    return w, a


def _overlap_exponent(u: np.ndarray, c: float = 1.0) -> np.ndarray:
    """-(|u_i|^2 + |u_j|^2)/2 + c conj(u_i) u_j for every pair (i, j) along the first axis of u.

    With c = 1 its exponential is the coherent overlap <u_i|u_j>; c = -1 gives
    <u_i|Pi|u_j> with Pi the parity operator, c = 0 the vacuum projector.
    """
    uu = np.abs(u) ** 2
    return -0.5 * (uu[:, None] + uu[None, :]) + c * np.conj(u)[:, None] * u[None, :]


def overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states: exp(-|a|^2/2 - |b|^2/2 + conj(a)*b)."""
    _, u = _coherent_arrays([1.0, 1.0], [a, b])
    return complex(np.exp(_overlap_exponent(u))[0, 1])


class StateKind(Enum):
    """The six parametric input states; any other superposition is built as ``SuperposedState(weights, amplitudes)``."""

    CS = "cs"
    ECSS = "ecss"
    MPS0 = "mps0"
    MPS1 = "mps1"
    MPS2 = "mps2"
    MPS3 = "mps3"

    @classmethod
    def parse(cls, name: str) -> "StateKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown state kind {name!r} (expected one of: {valid})") from None


MPS_INDEX = {StateKind.MPS0: 0, StateKind.MPS1: 1, StateKind.MPS2: 2, StateKind.MPS3: 3}


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class SuperposedState:
    """sum_k weights[k] |amplitudes[k]>, two read-only (K,) arrays; the weights are scaled to unit norm when built.

    A non-finite Gram sum raises ArithmeticError, a numerically zero one :class:`DegenerateState`.
    """

    weights: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        w, a = _coherent_arrays(self.weights, self.amplitudes)
        w = w * _inverse_norm(_gram(w, a))
        w.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "amplitudes", a)


def _gram(w: np.ndarray, a: np.ndarray) -> float:
    # an overflowing overlap is reported by _real_part or the exponent check, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = _overlap_exponent(a)
        total = _real_part(np.conj(w) @ np.exp(exponent) @ w, "Gram sum")
        if not np.isfinite(exponent).all():  # e.g. -inf, whose overlap 0 would read as a degenerate state
            raise ArithmeticError(f"Gram sum is not finite: |amplitude|^2 {np.max(np.abs(a)) ** 2:.3e} overflows an overlap")
    return total


def _inverse_norm(total: float) -> float:
    if not math.isfinite(total):
        raise ArithmeticError(f"Gram sum is {total}")
    if total < GRAM_DEGENERACY_THRESHOLD:
        raise DegenerateState(f"Gram sum {total:.3e} below {GRAM_DEGENERACY_THRESHOLD:g}")
    return 1.0 / math.sqrt(total)


def gram_sum(weights, amplitudes) -> float:
    """sum_ij conj(w_i) w_j <a_i|a_j>, the squared norm of sum_k w_k |a_k>."""
    return _gram(*_coherent_arrays(weights, amplitudes))


def make_state(kind: StateKind, alpha: complex) -> SuperposedState:
    """Build a normalized state of the given kind with coherent amplitude ``alpha``.

    CS is the single coherent state |alpha>; ECSS the even superposition of
    |i alpha> and |-i alpha>; MPS_j the four-component superposition over
    (alpha, i alpha, -alpha, -i alpha) with weights (-i)^(j m).
    """
    alpha = complex(alpha)
    if kind is StateKind.CS:
        return SuperposedState([1.0], [alpha])
    if kind is StateKind.ECSS:
        return SuperposedState([1.0, 1.0], [1j * alpha, -1j * alpha])
    if kind in MPS_INDEX:
        return SuperposedState([(-1j) ** (MPS_INDEX[kind] * m) for m in range(4)], [1j**m * alpha for m in range(4)])
    raise ValueError(f"unknown state kind {kind!r}")


def vacuum() -> SuperposedState:
    """The vacuum as a coherent state of amplitude zero."""
    return make_state(StateKind.CS, 0.0)


def mean_photon_number(state: SuperposedState) -> float:
    """<n> = sum_ij conj(w_i) w_j conj(a_i) a_j <a_i|a_j> of a normalized state."""
    w, a = state.weights, state.amplitudes
    gram = np.exp(_overlap_exponent(a))
    val = np.conj(w) @ (np.conj(a)[:, None] * a[None, :] * gram) @ w
    return max(_real_part(val, "mean photon number"), 0.0)


@dataclass(frozen=True, eq=False)
class CoherentOperator:
    """sum_ij coeffs[i, j] |amplitudes[j]><amplitudes[i]|, e.g. a pure or reduced density operator."""

    coeffs: np.ndarray
    amplitudes: np.ndarray

    def trace(self) -> complex:
        return complex(np.sum(self.coeffs * np.exp(_overlap_exponent(self.amplitudes))))


def density_operator(state: SuperposedState) -> CoherentOperator:
    """|psi><psi| of a normalized superposition: coefficients conj(w_i) w_j."""
    w = state.weights
    return CoherentOperator(np.conj(w)[:, None] * w[None, :], state.amplitudes)
