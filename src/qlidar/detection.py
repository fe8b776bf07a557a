"""Port-a photon statistics and binary-outcome observables.

Everything here is evaluated with one generic pair-sum over the output terms:
for any single-mode observable X with coherent matrix elements <a_i|X|a_j>,

    <X> = sum_ij conj(w_i) w_j <a_i|X|a_j> prod_{m in b, env_a, env_b} <u_i[m]|u_j[m]>.

Parity uses <a|Pi|b> = <a|-b>, the zero/nonzero scheme uses the vacuum
projector, and P(n) the number-state projector.  Pair sums are Hermitian by
construction, so the imaginary residue is asserted small and dropped rather
than silently discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .interferometer import FourModeOutput, MziConfig, _check_phase, _input_pairs, _output, mode_transform
from .states import CoherentOperator, SuperposedState, _overlap_exponent

IMAG_RESIDUE_TOL = 1e-12
NEGATIVE_PROBABILITY_TOL = -1e-10
CURVE_CHUNK = 1024  # phases per (K, K, P) pair block of a curve sweep


class NegativeProbability(ArithmeticError):
    """A probability fell below the numerical floor; signals an engine bug."""


class Scheme(Enum):
    """Binary-outcome detection scheme at port a."""

    PARITY = "parity"
    Z = "z"

    @classmethod
    def parse(cls, name: str) -> "Scheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown scheme {name!r} (expected 'parity' or 'z')") from None


@dataclass(frozen=True)
class PortDistribution:
    """P(n) at port a for n = 0..cutoff plus a bound on the truncated tail."""

    probs: np.ndarray
    cutoff: int
    tail_bound: float


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
        raise ArithmeticError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _pair_data(out: FourModeOutput):
    """Weights, port-a amplitudes, and the product of the three traced-mode overlaps."""
    w, amps = out.weights, out.amplitudes
    rest = np.ones((len(w), len(w)), dtype=complex)
    for m in (1, 2, 3):
        rest *= np.exp(_overlap_exponent(amps[:, m]))
    return w, amps[:, 0], rest


def _photon_probabilities(w: np.ndarray, a: np.ndarray, rest: np.ndarray, cutoff: int) -> np.ndarray:
    """P(0..cutoff) at port a in one pass over the pair data of :func:`_pair_data`.

    Pair term (i, j) of P(n) is its n = 0 term times z_ij^n / n!, with
    z_ij = conj(a_i) a_j; it is evaluated as one exponential per n so that
    large port intensities do not underflow the n = 0 factor.
    """
    aa = np.abs(a) ** 2
    gauss = -0.5 * (aa[:, None] + aa[None, :])
    z = np.conj(a)[:, None] * a[None, :]
    nz = z != 0
    log_z = np.log(z[nz])
    probs = np.empty(cutoff + 1)
    for n in range(cutoff + 1):
        if n == 0:
            port = np.exp(gauss)
        else:
            port = np.zeros_like(z)
            port[nz] = np.exp(gauss[nz] + n * log_z - math.lgamma(n + 1))
        val = _real_part(np.conj(w) @ (port * rest) @ w, f"P({n})")
        if val < NEGATIVE_PROBABILITY_TOL:
            raise NegativeProbability(f"P({n}) = {val:.3e}")
        probs[n] = min(max(val, 0.0), 1.0)
    return probs


def photon_probability(out: FourModeOutput, n: int) -> float:
    """Probability of counting exactly n photons at port a."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    return float(_photon_probabilities(*_pair_data(out), n)[n])


def default_cutoff(out: FourModeOutput) -> int:
    """Truncation making the port-a Poisson tails negligible for every term."""
    mean = float(np.max(np.abs(out.amplitudes[:, 0]) ** 2))
    return int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0))


def _poisson_tail_bound(mean: float, cutoff: int) -> float:
    """Upper bound on P(X > cutoff) for X ~ Poisson(mean).

    Beyond the cutoff successive terms shrink by at least mean / (cutoff + 2),
    so the tail is at most its first term over one minus that ratio.
    """
    if mean == 0.0:
        return 0.0
    if mean >= cutoff + 2:
        return 1.0
    first = math.exp(-mean + (cutoff + 1) * math.log(mean) - math.lgamma(cutoff + 2))
    return min(1.0, first / (1.0 - mean / (cutoff + 2)))


def port_distribution(out: FourModeOutput, cutoff: int | None = None) -> PortDistribution:
    """P(n) for n = 0..cutoff with a Cauchy-Schwarz bound on the dropped tail."""
    if cutoff is None:
        cutoff = default_cutoff(out)
    w, a, rest = _pair_data(out)
    probs = _photon_probabilities(w, a, rest, cutoff)
    tails = np.array([_poisson_tail_bound(float(lam), cutoff) for lam in np.abs(a) ** 2])
    bound = np.abs(np.conj(w)[:, None] * w[None, :] * rest) * np.sqrt(tails[:, None] * tails[None, :])
    return PortDistribution(probs=probs, cutoff=cutoff, tail_bound=float(np.sum(bound)))


def parity_expectation(out: FourModeOutput) -> float:
    """<Pi> at port a, the (-1)^n-weighted photon sum in closed form."""
    w, a, rest = _pair_data(out)
    val = _real_part(np.conj(w) @ (np.exp(_overlap_exponent(a, -1.0)) * rest) @ w, "parity")
    return min(max(val, -1.0), 1.0)


def z_expectation(out: FourModeOutput) -> float:
    """<Z> = P(0), the vacuum-projector expectation at port a."""
    return float(_photon_probabilities(*_pair_data(out), 0)[0])


def expectation_derivative(
    state_a: SuperposedState,
    state_b: SuperposedState,
    config: MziConfig,
    scheme: Scheme,
) -> float:
    """Analytic d<X>/dphi for X = parity or the vacuum projector at one phase."""
    return float(expectation_derivative_curve(state_a, state_b, scheme, [config.phi], config.loss_r)[0])


def expectation(state_a: SuperposedState, state_b: SuperposedState, config: MziConfig, scheme: Scheme) -> float:
    """<Pi> or <Z> for the given inputs and interferometer setting."""
    return expectation_evaluator(state_a, state_b, scheme, config.loss_r)(config.phi)


def expectation_evaluator(
    state_a: SuperposedState, state_b: SuperposedState, scheme: Scheme, loss_r: float = 0.0
) -> Callable[[float], float]:
    """<Pi> or <Z> as a function of one phase, with the input pairs built once."""
    weights, amps_in = _input_pairs(state_a, state_b)

    def evaluate(phi: float) -> float:
        out = _output(weights, amps_in, MziConfig(phi=phi, loss_r=loss_r))
        return parity_expectation(out) if scheme is Scheme.PARITY else z_expectation(out)

    return evaluate


def _phase_resolved_amplitudes(amps_in: np.ndarray, phis: np.ndarray, loss_r: float):
    """Output amplitudes u and their phase derivatives du of K input pairs over P phases.

    Both have shape (K, 4, P): the transfer matrix and its derivative applied
    to the (K, 2) input amplitudes at every phase.
    """
    matrix, derivative = mode_transform(phis, loss_r)
    aa, ab = amps_in[:, 0, None, None], amps_in[:, 1, None, None]
    return aa * matrix[:, 0] + ab * matrix[:, 1], aa * derivative[:, 0] + ab * derivative[:, 1]


def _curve_values(w, u, du, scheme: Scheme, want_derivative: bool) -> np.ndarray:
    cross = {Scheme.PARITY: -1.0, Scheme.Z: 0.0}[scheme]
    coeffs = (cross, 1.0, 1.0, 1.0)
    n_pairs, _, n_phi = u.shape
    exponent = np.zeros((n_pairs, n_pairs, n_phi), dtype=complex)
    dexp = np.zeros_like(exponent) if want_derivative else None
    for m in range(4):
        um, dum = u[:, m, :], du[:, m, :]
        exponent += _overlap_exponent(um, coeffs[m])
        if want_derivative:
            duu = 2.0 * np.real(np.conj(um) * dum)
            dexp += -0.5 * (duu[:, None, :] + duu[None, :, :]) + coeffs[m] * (
                np.conj(dum)[:, None, :] * um[None, :, :] + np.conj(um)[:, None, :] * dum[None, :, :]
            )
    pair_w = (np.conj(w)[:, None] * w[None, :])[:, :, None]
    terms = pair_w * np.exp(exponent)
    if want_derivative:
        terms = terms * dexp
    vals = np.sum(terms, axis=(0, 1))
    residue = float(np.max(np.abs(vals.imag)))
    if residue > IMAG_RESIDUE_TOL * max(1.0, float(np.max(np.abs(vals.real)))):
        raise ArithmeticError(f"curve has imaginary residue {residue:.3e}")
    return vals.real


def _sweep(state_a, state_b, scheme: Scheme, phis, loss_r: float, want_derivative: bool) -> np.ndarray:
    w, amps_in = _input_pairs(state_a, state_b)
    phis = _check_phase(np.asarray(phis, dtype=float))
    out = np.empty(phis.shape)
    for lo in range(0, len(phis), CURVE_CHUNK):
        u, du = _phase_resolved_amplitudes(amps_in, phis[lo : lo + CURVE_CHUNK], loss_r)
        out[lo : lo + CURVE_CHUNK] = _curve_values(w, u, du, scheme, want_derivative)
    return out


def expectation_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
) -> np.ndarray:
    """Vectorized <Pi> or <Z> over a grid of phase values."""
    return _sweep(state_a, state_b, scheme, phis, loss_r, want_derivative=False)


def expectation_derivative_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
) -> np.ndarray:
    """Vectorized analytic d<X>/dphi over a grid of phase values.

    Every output amplitude depends smoothly on phi through the transfer
    matrix, so each pair term differentiates to itself times the derivative of
    its exponent; no finite differencing is involved.
    """
    return _sweep(state_a, state_b, scheme, phis, loss_r, want_derivative=True)


def reduced_port_a(out: FourModeOutput) -> CoherentOperator:
    """Reduced density operator of port a: coefficients conj(w_i) w_j times the traced-mode overlaps."""
    w, a, rest = _pair_data(out)
    return CoherentOperator(np.conj(w)[:, None] * w[None, :] * rest, a)
