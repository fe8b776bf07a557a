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

Parity and Z also take an output with a leading axis over P phases, which
stays first in the pair data, (P, K) and (P, K, K).  Each phase's sum is the
gemv and dot of a one-phase sum over its own contiguous (K, K) block, so every
value is bit-identical to the one-phase call.

Each pair term is exp(A + B e^{i phi} + C e^{-i phi}), so a value curve over one
full period, with or without its end point, is fixed by a few dozen to a few
hundred samples; such a curve is evaluated at an a-priori Nyquist count and
resampled by FFT (:func:`expectation_curve`).  Curve chunks reuse their grid's
transfer matrix (:func:`_grid_transfer_matrix`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .interferometer import FourModeOutput, MziConfig, _check_cutoff, _check_loss, _check_phase, _input_pairs, _output, _transfer_matrix
from .states import IMAG_RESIDUE_TOL, CoherentOperator, SuperposedState, _overlap_exponent, _real_part

NEGATIVE_PROBABILITY_TOL = -1e-10
CURVE_CHUNK = 1024  # phases per (K, K, P) pair block of a curve sweep
GRID_MATRICES = 16  # chunk transfer matrices kept; refine's curves have 12 distinct chunks
TWO_PI = 2.0 * math.pi


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


# c of the port-a pair exponent c conj(u_i) u_j: <a|Pi|b> = <a|-b>, and the vacuum projector has no cross term
_PORT_A_CROSS = {Scheme.PARITY: -1.0, Scheme.Z: 0.0}


@dataclass(frozen=True)
class PortDistribution:
    """P(n) at port a for n = 0..cutoff, cutoff = len(probs) - 1, plus a bound on the truncated tail."""

    probs: np.ndarray
    tail_bound: float


def _one_phase(out: FourModeOutput) -> FourModeOutput:
    """``out`` unless it carries a leading phase axis, which only parity and Z take."""
    if out.amplitudes.ndim != 2:
        raise ValueError("P(n), its cutoff and the reduced port-a state take a one-phase output of shape (K, 4)")
    return out


def _traced_modes(loss_r: float) -> tuple[int, ...]:
    """Traced output modes that enter the pair sums: without loss both environments stay in vacuum."""
    return (1,) if loss_r == 0.0 else (1, 2, 3)


def _pair_exponent(u: np.ndarray, c: float = 1.0) -> np.ndarray:
    """:func:`~qlidar.states._overlap_exponent` for the pairs along the last axis of u: (P, K) amplitudes give (P, K, K)."""
    uu = np.abs(u) ** 2
    return -0.5 * (uu[..., :, None] + uu[..., None, :]) + c * np.conj(u)[..., :, None] * u[..., None, :]


def _pair_data(out: FourModeOutput):
    """Weights, port-a amplitudes, and the product of the traced-mode overlaps.

    Over P phases the amplitudes are (P, K) and the overlap product (P, K, K).
    """
    w, amps = out.weights, out.amplitudes
    first, *others = _traced_modes(out.loss_r)
    rest = np.exp(_pair_exponent(amps[..., first]))
    for m in others:  # in place: numpy's complex product of size-1 arrays may differ out of place in the last bit
        rest *= np.exp(_pair_exponent(amps[..., m]))
    return w, amps[..., 0], rest


def _pair_sum(w: np.ndarray, x: np.ndarray):
    """sum_ij conj(w_i) x_ij w_j for x of shape (K, K), or one such sum per phase for a contiguous (P, K, K)."""
    if x.ndim == 2:
        return np.conj(w) @ x @ w
    return ((np.conj(w) @ x)[:, None, :] @ w[:, None])[:, 0, 0]


def _photon_probabilities(w: np.ndarray, a: np.ndarray, rest: np.ndarray, cutoff: int) -> np.ndarray:
    """P(0..cutoff) at port a in one pass over the pair data of :func:`_pair_data`.

    Pair term (i, j) of P(n) is its n = 0 term times z_ij^n / n!, with
    z_ij = conj(a_i) a_j; it is evaluated as one exponential per n so that
    large port intensities do not underflow the n = 0 factor.  P(0), alone
    (``cutoff == 0``, at one phase or at each of P phases) or first of a
    distribution, raises only below both NEGATIVE_PROBABILITY_TOL and -beta, its
    rounding bound of :func:`_p0_rounding_bound`; P(n >= 1) below the former.
    """
    aa = np.abs(a) ** 2
    gauss = -0.5 * (aa[..., :, None] + aa[..., None, :])
    vacuum_terms = np.exp(gauss) * rest
    p0 = _real_part(_pair_sum(w, vacuum_terms), "P(0)")
    lowest = p0 if isinstance(p0, float) else p0.min(initial=np.inf)
    if lowest < NEGATIVE_PROBABILITY_TOL:
        bad = (p0 < NEGATIVE_PROBABILITY_TOL) & (p0 < -_p0_rounding_bound(w, vacuum_terms))
        if np.any(bad):
            raise NegativeProbability(f"P(0) = {np.min(p0, where=bad, initial=np.inf):.3e}")
    probs = np.empty((cutoff + 1,) + a.shape[:-1])
    probs[0] = p0
    if cutoff == 0:
        return probs.clip(0.0, 1.0)
    z = np.conj(a)[:, None] * a[None, :]
    nz = z != 0
    ns = np.arange(1, cutoff + 1)[:, None]
    log_factorial = np.array(list(map(math.lgamma, range(2, cutoff + 2))))[:, None]
    port = np.zeros((cutoff,) + z.shape, dtype=complex)
    port[:, nz] = np.exp(gauss[nz] + ns * np.log(z[nz]) - log_factorial)
    vals = np.einsum("nij,ij->n", port, np.conj(w)[:, None] * rest * w[None, :])
    real = vals.real
    bad = ~np.isfinite(vals) | (np.abs(vals.imag) > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(real)))
    bad |= real < NEGATIVE_PROBABILITY_TOL
    if np.count_nonzero(bad):
        n = int(np.argmax(bad)) + 1  # the first offending photon number
        raise NegativeProbability(f"P({n}) = {_real_part(vals[n - 1], f'P({n})'):.3e}")
    probs[1:] = real
    return probs.clip(0.0, 1.0)


def _p0_rounding_bound(w: np.ndarray, vacuum_terms: np.ndarray):
    """beta = K^2 2^-53 sum_ij |w_i w_j e^gauss_ij rest_ij|, per phase: the rounding a P(0) pair sum can carry.

    The K^2 terms cancel, so a P(0) that is zero in exact arithmetic may come out
    as negative as -beta (1.07e-8 for mps3 at |alpha|^2 = 0.01).
    """
    absw = np.abs(w)
    return len(w) ** 2 * 2.0**-53 * np.einsum("i,...ij,j->...", absw, np.abs(vacuum_terms), absw)


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
    """P(n) for n = 0..cutoff, a nonnegative integer (default :func:`default_cutoff`), with a Cauchy-Schwarz tail bound."""
    cutoff = default_cutoff(out) if cutoff is None else _check_cutoff(cutoff)
    w, a, rest = _pair_data(_one_phase(out))
    probs = _photon_probabilities(w, a, rest, cutoff)
    tails = np.array([_poisson_tail_bound(float(lam), cutoff) for lam in np.abs(a) ** 2])
    bound = np.abs(np.conj(w)[:, None] * w[None, :] * rest) * np.sqrt(tails[:, None] * tails[None, :])
    return PortDistribution(probs=probs, tail_bound=float(np.sum(bound)))


def parity_expectation(out: FourModeOutput):
    """<Pi> at port a, the (-1)^n-weighted photon sum in closed form; one value per phase over P phases."""
    w, a, rest = _pair_data(out)
    val = _real_part(_pair_sum(w, np.exp(_pair_exponent(a, -1.0)) * rest), "parity")
    return np.minimum(np.maximum(val, -1.0), 1.0) if isinstance(val, np.ndarray) else min(max(val, -1.0), 1.0)


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
    bit-identical to the float call at that phase; more axes raise ValueError.
    """
    weights, amps_in = _input_pairs(state_a, state_b)
    loss_r = _check_loss(loss_r)

    def evaluate(phi):
        out = _output(weights, amps_in, _check_phase(phi), loss_r)
        return parity_expectation(out) if scheme is Scheme.PARITY else z_expectation(out)

    return evaluate


def _slope_bound(w: np.ndarray, amps_in: np.ndarray) -> float:
    """B = gamma_n 4 S W, n = K^2 + 24, W = (sum_i |w_i|)^2, S = max_k |a_k|^2 + |b_k|^2: the rounding bound of a slope.

    Each slope term has modulus at most 4 S |w_i w_j| and is rounded at most 24 times before the K^2 terms
    are summed (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 4.2), so a
    slope sum of :func:`_chunk_sums` lies within B of the exact, real slope at any phase and loss.
    """
    nu = (len(w) ** 2 + 24) * 2.0**-53
    return nu / (1.0 - nu) * 4.0 * float(np.sum(np.abs(w))) ** 2 * float(np.max(np.sum(np.abs(amps_in) ** 2, axis=1)))


@functools.lru_cache(maxsize=GRID_MATRICES)
def _grid_transfer_matrix(phis: bytes, loss_r: float, with_derivative: bool):
    """:func:`_transfer_matrix` and its derivative at the float64 phases in ``phis``, read-only: built once per grid chunk."""
    pair = _transfer_matrix(np.frombuffer(phis), loss_r, with_derivative)
    for array in pair[: 1 + with_derivative]:
        array.flags.writeable = False
    return pair


def _chunk_sums(w, amps_in, phis, loss_r: float, scheme: Scheme, slope_bound: float | None, work):
    """The value sums, and the slope sums if slope_bound is given, at the P phases of one curve chunk.

    Port a (mode 0, c = c_0) and each mode m of :func:`_traced_modes` (c = 1) add the pair exponent of
    their amplitudes u_m = a M[m, 0] + b M[m, 1] (M from :func:`_grid_transfer_matrix`) to one (K, K, P) array in
    place, bit for bit as a (K, M, P) stack of the modes would; its real Gaussian part adds the exact halves
    -|u_i|^2 / 2 and -|u_j|^2 / 2, and is port a's whole exponent for Z (c_0 = 0).  ``work`` holds the sum, a
    mode's exponent and its Gaussian part in two complex and one real flat buffer that every chunk reuses.
    The transfer matrix is an isometry on the modes the sums keep, so sum_m conj(u_im) u_jm does not
    depend on phi, nor does sum_m |u_im|^2: the slope exponent is (c_0 - 1) d(conj(u_i0) u_j0)/dphi =
    (c_0 - 1) (X + conj(X^T)), X_ij = conj(du_i) u_j0, with du port a's derivative row applied to (a, b).
    The exact slope is real, so a slope's imaginary residue may reach the residue tolerance or
    slope_bound (:func:`_slope_bound`), whichever is larger.
    """
    matrix, derivative = _grid_transfer_matrix(phis.tobytes(), loss_r, slope_bound is not None)
    shape = (len(w), len(w), len(phis))
    exponent, cross, gauss = (buffer[: math.prod(shape)].reshape(shape) for buffer in work)
    aa, ab, c0 = amps_in[:, 0, None], amps_in[:, 1, None], _PORT_A_CROSS[scheme]
    port_a = aa * matrix[0, 0] + ab * matrix[0, 1]
    for m in (0, *_traced_modes(loss_r)):
        u = aa * matrix[m, 0] + ab * matrix[m, 1] if m else port_a
        half = np.abs(u) ** 2 * -0.5
        mode = cross if m else exponent  # port a's exponent starts the sum, and each traced mode's is added to it
        np.add(half[:, None], half[None, :], out=gauss if m or c0 else mode)
        if m or c0:  # a zero c_0 would add a product of zeros
            np.multiply(((1.0 if m else c0) * np.conj(u))[:, None], u[None, :], out=mode)
            np.add(gauss, mode, out=mode)
        if m:
            exponent += cross
    terms = np.exp(exponent, out=exponent)
    np.multiply((np.conj(w)[:, None] * w[None, :])[:, :, None], terms, out=terms)
    values = _real_part(np.sum(terms, axis=(0, 1)), "curve")
    if slope_bound is None:
        return (values,)
    x = np.multiply(np.conj(aa * derivative[0, 0] + ab * derivative[0, 1])[:, None, :], port_a[None, :, :], out=cross)
    x += np.conj(x.transpose(1, 0, 2))
    x *= terms
    slopes = (c0 - 1.0) * np.sum(x, axis=(0, 1))
    rounding = np.abs(slopes.imag) <= np.maximum(IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(slopes.real)), slope_bound)
    return values, _real_part(np.where(rounding, slopes.real, slopes), "slope curve")


def periodic_phase_grid(samples: int = 4096, start: float = -math.pi) -> np.ndarray:
    """Uniform grid over one full period, endpoint excluded."""
    return np.linspace(start, start + TWO_PI, samples, endpoint=False)


def _period_length(phis: np.ndarray) -> int:
    """How many leading phases of the 1-D phis form one period: P for an open one, P - 1 for a closed one, else 0.

    An open period of n phases is bit for bit ``periodic_phase_grid(n, phis[0])``;
    a closed one, bit for bit ``np.linspace(phis[0], phis[0] + TWO_PI, P)``, is an
    open period of P - 1 phases followed by phis[0] + TWO_PI.
    """
    for n in (len(phis), len(phis) - 1):
        if n > 1 and (n == len(phis) or phis[-1] == phis[0] + TWO_PI):
            if phis[:n].tobytes() == periodic_phase_grid(n, phis[0]).tobytes():
                return n
    return 0


def _interpolation_bounds(w: np.ndarray, amps_in: np.ndarray, scheme: Scheme, loss_r: float, counts: np.ndarray) -> np.ndarray:
    """The log of an a-priori bound on the error of each value of an m-sample trigonometric interpolant, for each m of counts.

    Port a's row of the transfer matrix is M0 + M1 e^{i phi}, read off at phi = 0
    and pi, so its amplitudes are p + q e^{i phi}.  The matrix is an isometry on the
    modes a pair sum keeps (:func:`_chunk_sums`), so each pair exponent is the
    input overlap exponent E_ij (both ports) plus (c_0 - 1) conj(u_i0) u_j0, which is
    A + B e^{i phi} + C e^{-i phi} with A = E + (c_0 - 1)(conj(p_i) p_j + conj(q_i) q_j)
    and B = (c_0 - 1) conj(p_i) q_j.
    The Fourier coefficients of its exponential obey
    sum_{n >= N} |c_n| <= e^{Re A + |C|} |B|^N / N! / (1 - |B| / (N + 1)), and the
    same with B and C swapped for n <= -N (Jacobi-Anger).  Resampling m samples of
    one period keeps the harmonics |n| < N = ceil(m / 2) up to what the others alias
    onto them, so each value moves by at most 2 sum_ij |w_i w_j| (both tails at N).
    C_ij = conj(B_ji) and Re A_ij = Re A_ji, so the tails towards -n sum to those
    towards +n.  The bound is +inf where some |B| reaches N + 1.
    """
    u = amps_in @ _grid_transfer_matrix(np.array([0.0, math.pi]).tobytes(), loss_r, False)[0][0]
    p, q = 0.5 * (u[:, 0] + u[:, 1]), 0.5 * (u[:, 0] - u[:, 1])  # (K,): port a's M0 and M1 amplitudes
    c = _PORT_A_CROSS[scheme] - 1.0
    cp = c * np.conj(p)[:, None]
    re_a = np.real(sum(map(_overlap_exponent, amps_in.T)) + cp * p + c * np.conj(q)[:, None] * q)
    b = np.abs(cp * q)
    n = (counts[:, None] + 1) // 2
    log_factorial = np.array([math.lgamma(k + 1) for k in n[:, 0].tolist()])[:, None]
    # log 0 = -inf where a weight or |B| is zero; the rows that diverge or vanish are read off top below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        front = (np.log(4.0 * np.abs(np.multiply.outer(w, w))) + re_a + b.T).ravel()
        x = b.ravel()
        logs = np.where(x < n + 1, front + n * np.log(x) - log_factorial - np.log1p(-x / (n + 1)), np.inf)
        top = np.max(logs, axis=1)
        finite = np.isfinite(top)
        shift = np.where(finite, top, 0.0)[:, None]
        return np.where(finite, top + np.log(np.sum(np.exp(logs - shift), axis=1)), top)


def _spectral_count(w: np.ndarray, amps_in: np.ndarray, scheme: Scheme, loss_r: float, n_phi: int) -> int:
    """The smallest divisor m < P of P whose interpolation bound is one rounding step of the direct sum, else P.

    One rounding step is 2^-52 sum_ij |w_i w_j|, the size of the pair terms that
    the direct sum cancels.
    """
    small = [d for d in range(1, math.isqrt(n_phi) + 1) if n_phi % d == 0]
    counts = np.array(sorted(set(small + [n_phi // d for d in small]) - {n_phi}))
    limit = 2.0 * math.log(float(np.sum(np.abs(w)))) - 52.0 * math.log(2.0)
    passing = np.flatnonzero(_interpolation_bounds(w, amps_in, scheme, loss_r, counts) <= limit)
    return int(counts[passing[0]]) if len(passing) else n_phi


def _fourier_resample(samples: np.ndarray, n_phi: int) -> np.ndarray:
    """The trigonometric interpolant of m equispaced samples of one period at n_phi equispaced phases; m divides n_phi.

    For even m the Nyquist bin stands for the harmonics +m/2 and -m/2 together,
    so it is halved before the spectrum is zero-padded.
    """
    spectrum = np.fft.rfft(samples, norm="forward")
    if len(samples) % 2 == 0:
        spectrum[-1] *= 0.5
    return np.fft.irfft(spectrum, n_phi, norm="forward")


def _sweep(w: np.ndarray, amps_in: np.ndarray, scheme: Scheme, phis, loss_r: float, want_derivative: bool):
    """The bare pair kernel on the pairs of :func:`_input_pairs`: raw <Pi> or <Z> at the P phases, in CURVE_CHUNK blocks, and slopes if wanted (else None)."""
    phis = _check_phase(phis)
    if np.ndim(phis) != 1:
        raise ValueError("phases of a curve must be a 1-D array")
    loss_r = _check_loss(loss_r)
    sums = np.empty((1 + want_derivative, len(phis)))  # values, then slopes if wanted
    bound = _slope_bound(w, amps_in) if want_derivative else None
    work = [np.empty(len(w) ** 2 * min(len(phis), CURVE_CHUNK), dtype) for dtype in (complex, complex, float)]
    for lo in range(0, len(phis), CURVE_CHUNK):
        sums[:, lo : lo + CURVE_CHUNK] = _chunk_sums(w, amps_in, phis[lo : lo + CURVE_CHUNK], loss_r, scheme, bound, work)
    return sums[0], sums[1] if want_derivative else None


def expectation_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
    *,
    direct: bool = False,
) -> np.ndarray:
    """Vectorized <Pi> or <Z> over a 1-D grid of phase values.

    On one full period of n phases, open or closed (:func:`_period_length`; the
    CLI's default grid is closed), the kernel runs at every (n/m)-th of the first
    n phases and an FFT resamples to all n; the end point of a closed period
    takes the first value, as the periodic interpolant does.  m is the smallest
    divisor of n below n whose a-priori interpolation bound
    (:func:`_interpolation_bounds`) is at most 2^-52 sum_ij |w_i w_j|, one
    rounding step of the direct sum.  Other grids, and a period that no such m
    fits, are evaluated at every phase.

    Then the scalar path's value rules apply.  A Z value below
    NEGATIVE_PROBABILITY_TOL takes the scalar evaluator's value at its phase,
    which raises NegativeProbability below -beta too and clamps otherwise;
    parity is clipped to [-1, 1] and Z to [0, 1].

    ``direct=True`` returns the raw kernel (:func:`_sweep`) at every phase.  It
    exists only for :func:`~qlidar.metrology.sample_curve`, whose widths the
    bench pins to the raw kernel's last bits, until they carry noise bands (see
    the roadmap); then the keyword is deleted.
    """
    if direct:
        return _sweep(*_input_pairs(state_a, state_b), scheme, phis, loss_r, want_derivative=False)[0]
    phis, pairs = _check_phase(phis), _input_pairs(state_a, state_b)
    n_period = _period_length(phis) if np.ndim(phis) == 1 else 0
    stride = 1
    if n_period:
        stride = n_period // _spectral_count(*pairs, scheme, _check_loss(loss_r), n_period)
    grid = phis[:n_period:stride] if stride > 1 else phis
    values = _sweep(*pairs, scheme, grid, loss_r, want_derivative=False)[0]
    if stride > 1:
        values = _fourier_resample(values, n_period)
        values = values if n_period == len(phis) else np.append(values, values[0])
    if scheme is Scheme.PARITY:
        return values.clip(-1.0, 1.0)
    low = values < NEGATIVE_PROBABILITY_TOL
    if np.any(low):
        values[low] = expectation_evaluator(state_a, state_b, scheme, loss_r)(phis[low])
    return values.clip(0.0, 1.0)


def expectation_derivative_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
) -> np.ndarray:
    """Vectorized analytic d<X>/dphi over a 1-D grid of phase values.

    Each pair term differentiates to itself times the derivative of its exponent, which port a's
    amplitudes alone carry (:func:`_chunk_sums`); no finite differencing is involved.
    """
    return _sweep(*_input_pairs(state_a, state_b), scheme, phis, loss_r, want_derivative=True)[1]


def reduced_port_a(out: FourModeOutput) -> CoherentOperator:
    """Reduced density operator of port a: coefficients conj(w_i) w_j times the traced-mode overlaps."""
    w, a, rest = _pair_data(_one_phase(out))
    return CoherentOperator(np.conj(w)[:, None] * w[None, :] * rest, a)
