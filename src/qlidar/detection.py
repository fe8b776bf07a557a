"""Port-a photon statistics and binary-outcome observables.

Everything here is evaluated with one generic pair-sum over the output terms:
for any single-mode observable X with coherent matrix elements <a_i|X|a_j>,

    <X> = sum_ij conj(w_i) w_j <a_i|X|a_j> prod_{m in b, env_a, env_b} <u_i[m]|u_j[m]>.

At zero loss both loss splitters are the identity, the environment amplitudes
are exactly 0 and their overlaps exactly 1, so the product runs over b alone
(:func:`_traced_modes`); skipping those factors changes no bit of any result.

Parity uses <a|Pi|b> = <a|-b>, the zero/nonzero scheme uses the vacuum
projector, and P(n) the number-state projector.  Pair sums are Hermitian by
construction, so every sum, scalar or curve, goes through the one residue check
:func:`~qlidar.states._real_part` rather than silently dropping its imaginary
part.

Parity and Z also take an output with a leading axis over P phases.  Each
phase's sum is the gemv and dot of a one-phase sum over its own contiguous
(K, K) block, so every value is bit-identical to the one-phase call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .interferometer import FourModeOutput, MziConfig, _check_loss, _check_phase, _input_pairs, _output, _transfer_matrix
from .states import IMAG_RESIDUE_TOL, CoherentOperator, SuperposedState, _overlap_exponent, _real_part

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


def _one_phase(out: FourModeOutput) -> FourModeOutput:
    """``out`` unless it carries a leading phase axis, which only parity and Z take."""
    if out.amplitudes.ndim != 2:
        raise ValueError("P(n), its cutoff and the reduced port-a state take a one-phase output of shape (K, 4)")
    return out


def _traced_modes(loss_r: float) -> tuple[int, ...]:
    """Traced output modes that enter the pair sums: without loss both environments stay in vacuum."""
    return (1,) if loss_r == 0.0 else (1, 2, 3)


def _pair_data(out: FourModeOutput):
    """Weights, port-a amplitudes, and the product of the traced-mode overlaps.

    Over P phases the amplitudes are (K, P) and the overlap product (K, K, P).
    """
    w, amps = out.weights, out.amplitudes
    rest = np.ones((len(w), len(w)) + amps.shape[:-2], dtype=complex)
    for m in _traced_modes(out.loss_r):
        rest *= np.exp(_overlap_exponent(amps[..., m].T))
    return w, amps[..., 0].T, rest


def _pair_sum(w: np.ndarray, x: np.ndarray):
    """sum_ij conj(w_i) x_ij w_j for x of shape (K, K), or one such sum per phase for (K, K, P)."""
    if x.ndim == 2:
        return np.conj(w) @ x @ w
    x = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    return ((np.conj(w) @ x)[:, None, :] @ w[:, None])[:, 0, 0]


def _photon_probabilities(w: np.ndarray, a: np.ndarray, rest: np.ndarray, cutoff: int) -> np.ndarray:
    """P(0..cutoff) at port a in one pass over the pair data of :func:`_pair_data`.

    Pair term (i, j) of P(n) is its n = 0 term times z_ij^n / n!, with
    z_ij = conj(a_i) a_j; it is evaluated as one exponential per n so that
    large port intensities do not underflow the n = 0 factor.
    """
    aa = np.abs(a) ** 2
    gauss = -0.5 * (aa[:, None] + aa[None, :])
    vals = np.empty((cutoff + 1,) + a.shape[1:], dtype=complex)
    vals[0] = _pair_sum(w, np.exp(gauss) * rest)
    if cutoff == 0:  # P(0) alone (z_expectation), at one phase or at each of P phases
        p0 = _real_part(vals[0], "P(0)")
        lowest = p0 if isinstance(p0, float) else p0.min()
        if lowest < NEGATIVE_PROBABILITY_TOL:
            raise NegativeProbability(f"P(0) = {lowest:.3e}")
        return vals.real.clip(0.0, 1.0)
    z = np.conj(a)[:, None] * a[None, :]
    nz = z != 0
    ns = np.arange(1, cutoff + 1)[:, None]
    log_factorial = np.array(list(map(math.lgamma, range(2, cutoff + 2))))[:, None]
    port = np.zeros((cutoff,) + z.shape, dtype=complex)
    port[:, nz] = np.exp(gauss[nz] + ns * np.log(z[nz]) - log_factorial)
    vals[1:] = np.einsum("nij,ij->n", port, np.conj(w)[:, None] * rest * w[None, :])
    real = vals.real
    bad = (np.abs(vals.imag) > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(real))) | (real < NEGATIVE_PROBABILITY_TOL)
    if np.count_nonzero(bad):
        n = int(np.argmax(bad))  # the first offending photon number
        raise NegativeProbability(f"P({n}) = {_real_part(vals[n], f'P({n})'):.3e}")
    return real.clip(0.0, 1.0)


def photon_probability(out: FourModeOutput, n: int) -> float:
    """Probability of counting exactly n photons at port a."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    return float(_photon_probabilities(*_pair_data(_one_phase(out)), n)[n])


def default_cutoff(out: FourModeOutput) -> int:
    """Truncation making the port-a Poisson tails negligible for every term."""
    mean = float(np.max(np.abs(_one_phase(out).amplitudes[:, 0]) ** 2))
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
    w, a, rest = _pair_data(_one_phase(out))
    probs = _photon_probabilities(w, a, rest, cutoff)
    tails = np.array([_poisson_tail_bound(float(lam), cutoff) for lam in np.abs(a) ** 2])
    bound = np.abs(np.conj(w)[:, None] * w[None, :] * rest) * np.sqrt(tails[:, None] * tails[None, :])
    return PortDistribution(probs=probs, cutoff=cutoff, tail_bound=float(np.sum(bound)))


def parity_expectation(out: FourModeOutput):
    """<Pi> at port a, the (-1)^n-weighted photon sum in closed form; one value per phase over P phases."""
    w, a, rest = _pair_data(out)
    val = _real_part(_pair_sum(w, np.exp(_overlap_exponent(a, -1.0)) * rest), "parity")
    return np.clip(val, -1.0, 1.0) if isinstance(val, np.ndarray) else min(max(val, -1.0), 1.0)


def z_expectation(out: FourModeOutput):
    """<Z> = P(0), the vacuum-projector expectation at port a; one value per phase over P phases."""
    p0 = _photon_probabilities(*_pair_data(out), 0)[0]
    return p0 if p0.ndim else float(p0)


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
) -> Callable:
    """<Pi> or <Z> as a function of the phase, with the input pairs built once.

    A float gives a float; a 1-D array of phases gives an array, each element
    bit-identical to the float call at that phase.
    """
    weights, amps_in = _input_pairs(state_a, state_b)
    loss_r = _check_loss(loss_r)

    def evaluate(phi):
        out = _output(weights, amps_in, _check_phase(phi), loss_r)
        return parity_expectation(out) if scheme is Scheme.PARITY else z_expectation(out)

    return evaluate


def _phase_resolved_amplitudes(amps_in: np.ndarray, phis: np.ndarray, loss_r: float, want_derivative: bool):
    """Output amplitudes u and, if wanted, their phase derivatives du (else None) of K input pairs over P phases.

    Both have shape (K, M, P): rows 0 and :func:`_traced_modes` of the transfer
    matrix and its derivative applied to the (K, 2) input amplitudes at every phase.
    """
    rows = [0, *_traced_modes(loss_r)]
    aa, ab = amps_in[:, 0, None, None], amps_in[:, 1, None, None]
    apply = lambda m: aa * m[rows, 0] + ab * m[rows, 1]
    if not want_derivative:
        return apply(_transfer_matrix(phis, loss_r)), None
    matrix, derivative = _transfer_matrix(phis, loss_r, with_derivative=True)
    return apply(matrix), apply(derivative)


def _curve_values(w, u, du, scheme: Scheme):
    """Value sums and, if du is given, slope sums (else None) at the P phases of u, from one terms array.

    Mode 0 of u is port a; the other modes of u are traced out.
    """
    cross = {Scheme.PARITY: -1.0, Scheme.Z: 0.0}[scheme]
    coeffs = (cross, 1.0, 1.0, 1.0)
    n_pairs, n_modes, n_phi = u.shape
    exponent = np.zeros((n_pairs, n_pairs, n_phi), dtype=complex)
    dexp = None if du is None else np.zeros_like(exponent)
    for m in range(n_modes):
        um = u[:, m, :]
        exponent += _overlap_exponent(um, coeffs[m])
        if du is not None:
            dum = du[:, m, :]
            duu = 2.0 * np.real(np.conj(um) * dum)
            dexp += -0.5 * (duu[:, None, :] + duu[None, :, :]) + coeffs[m] * (
                np.conj(dum)[:, None, :] * um[None, :, :] + np.conj(um)[:, None, :] * dum[None, :, :]
            )
    pair_w = (np.conj(w)[:, None] * w[None, :])[:, :, None]
    terms = pair_w * np.exp(exponent)
    values = _real_part(np.sum(terms, axis=(0, 1)), "curve")
    return values, (None if du is None else _real_part(np.sum(terms * dexp, axis=(0, 1)), "slope curve"))


def _sweep(state_a, state_b, scheme: Scheme, phis, loss_r: float, want_derivative: bool):
    """<Pi> or <Z> over the P phases, and its slopes if wanted (else None), both (P,)."""
    w, amps_in = _input_pairs(state_a, state_b)
    phis = _check_phase(phis)
    loss_r = _check_loss(loss_r)
    values = np.empty(phis.shape)
    slopes = np.empty(phis.shape) if want_derivative else None
    for lo in range(0, len(phis), CURVE_CHUNK):
        part = slice(lo, lo + CURVE_CHUNK)
        u, du = _phase_resolved_amplitudes(amps_in, phis[part], loss_r, want_derivative)
        values[part], chunk_slopes = _curve_values(w, u, du, scheme)
        if want_derivative:
            slopes[part] = chunk_slopes
    return values, slopes


def expectation_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
) -> np.ndarray:
    """Vectorized <Pi> or <Z> over a grid of phase values."""
    return _sweep(state_a, state_b, scheme, phis, loss_r, want_derivative=False)[0]


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
    return _sweep(state_a, state_b, scheme, phis, loss_r, want_derivative=True)[1]


def reduced_port_a(out: FourModeOutput) -> CoherentOperator:
    """Reduced density operator of port a: coefficients conj(w_i) w_j times the traced-mode overlaps."""
    w, a, rest = _pair_data(_one_phase(out))
    return CoherentOperator(np.conj(w)[:, None] * w[None, :] * rest, a)
