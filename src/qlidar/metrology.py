"""Figures of merit extracted from observable-versus-phase curves.

Resolution is quantified by the full width at half maximum of the principal
fringe; foldness by counting fringe peaks per phase window; sensitivity by
error propagation of the binary observables against the shot-noise floor
1/sqrt(total input photons).  Curves carry an evaluator of the continuous
observable so crossing and extremum positions can be refined well below the
sampling step.

The evaluator contract: a float phase gives a float, and a 1-D array of
phases gives an array of the values at those phases.  Searches that do not
depend on each other (the peaks of one window, the two crossings of one
width) run in lockstep: each step evaluates the points of all unfinished
searches in one array call, and a float call when one point is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import detection
from .detection import Scheme
from .interferometer import MziConfig, _check_loss
from .states import SuperposedState, mean_photon_number

TWO_PI = 2.0 * math.pi
REFINE_TOL = 1e-8
PEAK_NOISE_THRESHOLD = 1e-9
DERIVATIVE_FLOOR = 1e-14
ZERO_ENERGY_THRESHOLD = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoPeak(ValueError, ArithmeticError):
    """The curve has no interior extremum to measure."""


class ZeroEnergy(ValueError):
    """Both inputs carry (numerically) no photons; no shot-noise reference."""


@dataclass(frozen=True)
class SignalCurve:
    """Sampled observable-vs-phase curve plus an optional continuous evaluator."""

    phis: np.ndarray
    values: np.ndarray
    scheme: Scheme
    evaluator: Callable | None = None  # a float gives a float, a 1-D array of phases an array

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if phis.ndim != 1 or phis.shape != values.shape:
            raise ValueError("phis and values must be matching 1-D arrays")
        if len(phis) < 2 or np.any(np.diff(phis) <= 0):
            raise ValueError("phis must be strictly increasing with at least 2 samples")
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "values", values)

    @property
    def span(self) -> float:
        return float(self.phis[-1] - self.phis[0])

    def samples_per_period(self) -> float:
        return len(self.phis) * TWO_PI / (self.span + (self.phis[1] - self.phis[0]))


def periodic_phase_grid(samples: int = 4096, start: float = -math.pi) -> np.ndarray:
    """Uniform grid over one full period, endpoint excluded."""
    return np.linspace(start, start + TWO_PI, samples, endpoint=False)


def sample_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis=None,
    loss_r: float = 0.0,
) -> SignalCurve:
    """Evaluate the detection signal on a phase grid (default: one period)."""
    if phis is None:
        phis = periodic_phase_grid()
    phis = np.asarray(phis, dtype=float)
    values = detection.expectation_curve(state_a, state_b, scheme, phis, loss_r)
    evaluator = detection.expectation_evaluator(state_a, state_b, scheme, loss_r)
    return SignalCurve(phis=phis, values=values, scheme=scheme, evaluator=evaluator)


@dataclass(frozen=True)
class SensitivityPoint:
    """Error-propagation sensitivity at one phase, against the shot-noise floor."""

    phi: float
    delta_phi: float  # +inf at stationary points
    snl: float

    @property
    def ratio(self) -> float:
        return self.delta_phi / self.snl


def snl(state_a: SuperposedState, state_b: SuperposedState) -> float:
    """Shot-noise sensitivity floor 1/sqrt(total mean input photons)."""
    total = mean_photon_number(state_a) + mean_photon_number(state_b)
    if total < ZERO_ENERGY_THRESHOLD:
        raise ZeroEnergy("total input photon number is zero")
    return 1.0 / math.sqrt(total)


def phase_sensitivity(
    state_a: SuperposedState,
    state_b: SuperposedState,
    config: MziConfig,
    scheme: Scheme,
) -> SensitivityPoint:
    """Delta-phi from the binary observable's variance and analytic slope at one phase."""
    return sensitivity_curve(state_a, state_b, scheme, [config.phi], config.loss_r)[0]


def sensitivity_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis,
    loss_r: float = 0.0,
) -> list[SensitivityPoint]:
    """Delta-phi from the binary observable's variance and analytic slope over a phase grid.

    A vanishing slope is a legitimate operating point (stationary phase), so
    it yields an infinite sensitivity marker rather than an exception.
    """
    floor = snl(state_a, state_b)
    phis = np.asarray(phis, dtype=float)
    values, slopes = detection._sweep(state_a, state_b, scheme, phis, loss_r, want_derivative=True)
    if scheme is Scheme.PARITY:
        variance = np.maximum(0.0, 1.0 - values * values)
    else:
        variance = np.maximum(0.0, values - values * values)
    flat = np.abs(slopes) < DERIVATIVE_FLOOR
    delta_phi = np.sqrt(variance) / np.where(flat, 1.0, np.abs(slopes))
    delta_phi[flat] = math.inf
    return [SensitivityPoint(phi=phi, delta_phi=d, snl=floor) for phi, d in zip(phis.tolist(), delta_phi.tolist())]


def _lockstep(f: Callable, searches: list) -> list:
    """Run search generators side by side and return their results in order.

    A search yields a tuple of points, is sent the tuple of values of f
    there, and returns its result.  Each step makes one call of f on the
    points of every unfinished search: a float call for a single point, an
    array call otherwise.  So each search sees the values it would see alone.
    """
    results = [None] * len(searches)
    replies = dict.fromkeys(range(len(searches)))
    while replies:
        asks = {}
        for k, reply in replies.items():
            try:
                asks[k] = searches[k].send(reply)
            except StopIteration as stop:
                results[k] = stop.value
        if not asks:
            break
        points = [float(x) for pts in asks.values() for x in pts]
        values = iter([f(points[0])] if len(points) == 1 else f(np.array(points)).tolist())
        replies = {k: tuple(next(values) for _ in pts) for k, pts in asks.items()}
    return results


def _golden_search(lo: float, hi: float, tol: float = REFINE_TOL):
    """Golden-section maximizer on [lo, hi], as a search for :func:`_lockstep`."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = yield c, d
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            (fc,) = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            (fd,) = yield (d,)
    return 0.5 * (a + b)


def _bisect_search(lo: float, hi: float, flo: float, fhi: float, tol: float = REFINE_TOL):
    """Bisection root on [lo, hi], whose end values flo and fhi differ in sign, as a search for :func:`_lockstep`."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        (fm,) = yield (mid,)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interior_extrema(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strict interior local maxima and minima of a sampled curve."""
    inner, left, right = values[1:-1], values[:-2], values[2:]
    maxima = np.flatnonzero((inner > left) & (inner > right)) + 1
    minima = np.flatnonzero((inner < left) & (inner < right)) + 1
    return maxima, minima


def _principal_peak(values: np.ndarray, baseline: float | None) -> tuple[int, float, float]:
    """Sample index, sign (1 upright, -1 inverted) and baseline of the principal fringe; see :func:`fwhm`."""
    maxima, minima = _interior_extrema(values)
    if not len(maxima) and not len(minima):
        raise NoPeak("curve is monotone over its domain")
    vmin, vmax = float(np.min(values)), float(np.max(values))
    base_up = vmin if baseline is None else float(baseline)
    base_down = vmax if baseline is None else float(baseline)
    up_dev, up_idx = -math.inf, None
    for i in maxima:
        dev = values[i] - base_up
        if dev > up_dev:
            up_dev, up_idx = dev, i
    down_dev, down_idx = -math.inf, None
    for i in minima:
        dev = base_down - values[i]
        if dev > down_dev:
            down_dev, down_idx = dev, i
    inverted = down_dev > up_dev + 1e-12 * max(1.0, vmax - vmin)
    best_idx = down_idx if inverted else up_idx
    if best_idx is None or (not inverted and up_dev <= 0.0) or (inverted and down_dev <= 0.0):
        raise NoPeak("no extremum stands out from the baseline")
    return (best_idx, -1.0, base_down) if inverted else (best_idx, 1.0, base_up)


def _crossing_search(phis: np.ndarray, above: np.ndarray, best_idx: int, step: int):
    """Half-level crossing on one side of the peak, as a search for :func:`_lockstep` on the signed level.

    ``above`` marks the samples on the peak's side of the half level.  The
    bracket starts at the first sample pair around the half level on this
    side of the peak.  Near a flat crossing the evaluator can put a sample on
    the other side in the last bit; then widen one sample at a time past
    whichever end it puts on the wrong side until the bracket changes sign.
    """
    run = above[best_idx + 1 :] if step > 0 else above[best_idx - 1 :: -1]
    below = np.flatnonzero(~run)
    inside = best_idx + step * (int(below[0]) if len(below) else len(run))
    outside = inside + step
    while True:
        if not (0 <= inside < len(phis) and 0 <= outside < len(phis)):
            raise NoPeak("half level is never crossed on both sides of the peak")
        g_in, g_out = yield phis[inside], phis[outside]
        if g_in == 0.0 or g_out == 0.0 or (g_in < 0.0) != (g_out < 0.0):
            break
        if g_in < 0.0:
            inside -= step
        else:
            outside += step
    if step > 0:
        return (yield from _bisect_search(phis[inside], phis[outside], g_in, g_out))
    return (yield from _bisect_search(phis[outside], phis[inside], g_out, g_in))


def fwhm(curve: SignalCurve, baseline: float | None = None) -> float:
    """Full width at half maximum of the principal fringe, in radians.

    The principal peak is the interior extremum farthest from the baseline;
    by default the baseline is the curve minimum for upright peaks and the
    maximum for inverted ones (upright preferred on ties), but an explicit
    value may be supplied (e.g. the zero line of a parity signal).  The half
    level sits midway between peak and baseline, and both crossings are
    refined together by bisection on the continuous observable.
    """
    phis, values = curve.phis, curve.values
    best_idx, sign, baseline = _principal_peak(values, baseline)
    if curve.evaluator is not None:
        f = curve.evaluator
        (peak_phi,) = _lockstep(lambda x: sign * f(x), [_golden_search(phis[best_idx - 1], phis[best_idx + 1])])
        peak_val = f(peak_phi)
    else:
        f = lambda x: np.interp(x, phis, values)
        peak_phi, peak_val = float(phis[best_idx]), float(values[best_idx])

    half = 0.5 * (peak_val + baseline)
    above = sign * (values - half) >= 0.0
    searches = [_crossing_search(phis, above, best_idx, step) for step in (-1, 1)]
    left, right = _lockstep(lambda x: sign * (f(x) - half), searches)
    return float(right - left)


def _raw_peaks(curve: SignalCurve, lo: float, hi: float, side: str, midline, threshold: float):
    """Sample indices of the one-sided peaks of a curve and the midline they are measured from; see peak_locations."""
    if side not in ("upper", "lower", "folded"):
        raise ValueError("side must be 'upper', 'lower' or 'folded'")
    if not hi > lo:
        raise ValueError("window must have positive width")
    if curve.samples_per_period() < 1000:
        raise ValueError("peak counting needs at least 1000 samples per period")
    phis, values = curve.phis, curve.values
    n = len(phis)
    periodic = abs(curve.span + (phis[1] - phis[0]) - TWO_PI) < 1e-9

    if midline is None:
        shifted = (phis - lo) % TWO_PI
        in_window = shifted <= (hi - lo) % TWO_PI if (hi - lo) < TWO_PI else np.ones(n, bool)
        if not np.any(in_window):
            return np.empty(0, int), 0.0
        windowed = values[in_window]
        mid = 0.5 * (float(np.max(windowed)) + float(np.min(windowed)))
    else:
        mid = float(midline)

    if side == "upper":
        signal = values - mid
    elif side == "lower":
        signal = mid - values
    else:
        signal = np.abs(values - mid)

    peaks = (signal > np.roll(signal, 1)) & (signal > np.roll(signal, -1)) & (signal > threshold)
    if not periodic:
        peaks[[0, -1]] = False
    return np.flatnonzero(peaks), mid


def _in_window(positions, lo: float, hi: float) -> list[float]:
    """Positions mapped into [lo, lo + 2 pi), keeping those inside the window, sorted."""
    width = hi - lo
    result = []
    for phi0 in positions:
        mapped = lo + ((phi0 - lo) % TWO_PI)
        if mapped <= hi or (width >= TWO_PI - 1e-12):
            result.append(mapped)
    return sorted(result)


def peak_locations(
    curve: SignalCurve,
    window: tuple[float, float],
    side: str = "upper",
    midline: float | None = None,
    threshold: float = PEAK_NOISE_THRESHOLD,
) -> list[float]:
    """Refined positions of one-sided fringe peaks inside a phase window.

    The curve is treated as 2-pi periodic.  ``side`` selects which features
    count: strict local maxima above the midline ("upper"), strict local
    minima below it ("lower"), or extrema of the distance from the midline
    ("folded", which sees an inverted fringe as a peak).  ``midline``
    defaults to the mid-range of the windowed samples; peaks closer to the
    midline than ``threshold`` are ignored as noise.  All peaks are refined
    together, one golden-section search each.
    """
    lo, hi = float(window[0]), float(window[1])
    raw, mid = _raw_peaks(curve, lo, hi, side, midline, threshold)
    phis, f = curve.phis, curve.evaluator
    if f is None:
        return _in_window([float(phis[i]) for i in raw], lo, hi)
    step = phis[1] - phis[0]
    if side == "upper":
        g = f
    elif side == "lower":
        g = lambda x: -f(x)
    else:
        g = lambda x: np.abs(f(x) - mid)
    return _in_window(_lockstep(g, [_golden_search(phis[i] - step, phis[i] + step) for i in raw]), lo, hi)


def peak_count(
    curve: SignalCurve,
    window: tuple[float, float],
    side: str = "upper",
    midline: float | None = None,
    threshold: float = PEAK_NOISE_THRESHOLD,
) -> int:
    """Number of one-sided fringe peaks inside the window; see peak_locations."""
    return len(peak_locations(curve, window, side=side, midline=midline, threshold=threshold))


def loss_sweep(
    state_a: SuperposedState,
    state_b: SuperposedState,
    phi: float,
    scheme: Scheme,
    r_grid,
    metric: str = "ratio",
) -> list[tuple[float, float]]:
    """Recompute a figure of merit over a grid of loss reflectivities.

    ``metric='ratio'`` evaluates delta-phi over the shot-noise floor at the
    fixed phase; ``metric='fwhm'`` measures the principal fringe width at
    fixed input energy.  loss_t follows from each grid value.
    """
    if metric not in ("ratio", "fwhm"):
        raise ValueError("metric must be 'ratio' or 'fwhm'")
    rows = []
    for r in [_check_loss(r) for r in r_grid]:  # the whole grid is checked before any work
        if metric == "ratio":
            point = phase_sensitivity(state_a, state_b, MziConfig(phi=phi, loss_r=r), scheme)
            rows.append((r, point.ratio))
        else:
            curve = sample_curve(state_a, state_b, scheme, loss_r=r)
            rows.append((r, fwhm(curve)))
    return rows


def range_from_phase(phi: float, wavelength: float) -> float:
    """Target distance for a measured round-trip phase at the given wavelength."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return phi * wavelength / (4.0 * math.pi)
