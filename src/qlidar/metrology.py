"""Figures of merit extracted from observable-versus-phase curves.

Resolution is quantified by the full width at half maximum of the principal
fringe; foldness by counting fringe peaks per phase window; sensitivity by
error propagation of the binary observables against the shot-noise floor
1/sqrt(total input photons).  Curves carry an evaluator of the continuous
observable so crossing and extremum positions can be refined well below the
sampling step.

Extrema come from one scan for samples above both neighbours
(:func:`_strict_maxima`; minima are the maxima of the negated curve, and the
ends of a full period are neighbours).  One window rule (:func:`_in_window`)
maps a position into [lo, lo + 2 pi) and keeps it when it is at most hi, or
always when the window spans a period; it picks the samples of the default
midline and the peaks that are reported.

The evaluator contract: a float phase gives a float, and a 1-D array of
phases gives an array of the values at those phases.  Searches that do not
depend on each other (the peaks of one window, the two crossings of one
width) run in lockstep: one array call holds the points of every unfinished
search for its next AHEAD steps, both outcomes of each (:func:`_look_ahead`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, NamedTuple

import numpy as np

from . import detection
from .detection import TWO_PI, Scheme, periodic_phase_grid
from .interferometer import MziConfig, _check_loss
from .states import SuperposedState, mean_photon_number

REFINE_TOL = 1e-8
PEAK_NOISE_THRESHOLD = 1e-9
ZERO_ENERGY_THRESHOLD = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
AHEAD = 3  # steps each search asks at a time; see _look_ahead


class NoPeak(ValueError, ArithmeticError):
    """The curve has no interior extremum to measure."""


class ZeroEnergy(ValueError):
    """Both inputs carry (numerically) no photons; no shot-noise reference."""


@dataclass(frozen=True)
class SignalCurve:
    """Sampled observable-vs-phase curve plus an optional continuous evaluator."""

    phis: np.ndarray
    values: np.ndarray
    evaluator: Callable | None = None  # a float gives a float, a 1-D array of phases an array

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if phis.ndim != 1 or phis.shape != values.shape:
            raise ValueError("phis and values must be matching 1-D arrays")
        for name, array in (("phis", phis), ("values", values)):
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")
        if len(phis) < 2 or np.any(np.diff(phis) <= 0):
            raise ValueError("phis must be strictly increasing with at least 2 samples")
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "values", values)


def sample_curve(
    state_a: SuperposedState,
    state_b: SuperposedState,
    scheme: Scheme,
    phis=None,
    loss_r: float = 0.0,
) -> SignalCurve:
    """Evaluate the detection signal on a phase grid (default: one period), directly at every phase.

    The widths and peaks refined from it keep the last bits of the direct kernel;
    see the ``direct`` keyword of :func:`~qlidar.detection.expectation_curve`.
    """
    phis = periodic_phase_grid() if phis is None else np.asarray(phis, dtype=float)
    values = detection.expectation_curve(state_a, state_b, scheme, phis, loss_r, direct=True)
    evaluator = detection.expectation_evaluator(state_a, state_b, scheme, loss_r)
    return SignalCurve(phis=phis, values=values, evaluator=evaluator)


class SensitivityPoint(NamedTuple):
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
    it yields an infinite sensitivity marker rather than an exception, as does a zero
    variance: a bounded signal reaches the edge of its range only at an extremum.
    A slope within its rounding bound B (:func:`~qlidar.detection._slope_bound`) is zero to rounding.
    """
    floor = snl(state_a, state_b)
    phis, pairs = np.asarray(phis, dtype=float), detection._input_pairs(state_a, state_b)
    values, slopes = detection._sweep(*pairs, scheme, phis, loss_r, want_derivative=True)
    variance = np.maximum(0.0, (1.0 if scheme is Scheme.PARITY else values) - values * values)
    flat = (np.abs(slopes) <= detection._slope_bound(*pairs)) | (variance <= 0.0)
    delta_phi = np.sqrt(variance) / np.where(flat, 1.0, np.abs(slopes))
    delta_phi[flat] = math.inf
    # tuple.__new__ is what the NamedTuple constructor calls, without its per-point Python frame
    return list(map(tuple.__new__, repeat(SensitivityPoint), zip(phis.tolist(), delta_phi.tolist(), repeat(floor))))


def _lockstep(f: Callable, searches: list) -> list:
    """Run search generators side by side and return their results in order.

    A search yields a tuple of points, is sent the tuple of values of f
    there, and returns its result.  Each step makes one array call of f on
    the points of every unfinished search, each value bit-identical to the
    float call at its point, so each search sees the values it would see alone.
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
        values = iter(f(np.array([float(x) for pts in asks.values() for x in pts])).tolist())
        replies = {k: tuple(islice(values, len(pts))) for k, pts in asks.items()}
    return results


def _look_ahead(state: tuple, step: Callable, tol: float):
    """A search for :func:`_lockstep` that narrows the bracket state[:2] until it is within tol, and returns its midpoint.

    step(state) gives the next point x and the function of f(x) that gives the
    next state.  Each ask holds the points of the next AHEAD steps, breadth-first,
    found by step itself with f(x) = +-2^(1020 + k) at depth k, above or below all
    earlier values: both outcomes of comparing f(x) with them.  The steps are then
    replayed on the values, looked up by point, until a point was not asked.
    """
    while state[1] - state[0] > tol:
        level, points = [step(state)], []
        for k in range(AHEAD - 1):
            points += [x for x, _ in level]
            big = math.ldexp(1.0, 1020 + k)
            level = [step(s) for _, after in level for s in (after(big), after(-big)) if s[1] - s[0] > tol]
        points += [x for x, _ in level]
        values = dict(zip(points, (yield tuple(points))))
        while state[1] - state[0] > tol and (node := step(state))[0] in values:
            state = node[1](values[node[0]])
    return 0.5 * (state[0] + state[1])


def _golden_search(lo: float, hi: float, tol: float = REFINE_TOL):
    """Golden-section maximizer on [lo, hi], as a search for :func:`_lockstep`."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = yield c, d

    def step(s):  # keep [a, d] if f(c) > f(d), else [c, b], and ask the new inner point x
        a, b, c, d, fc, fd = s
        if fc > fd:
            return (x := d - GOLDEN * (d - a)), lambda v: (a, d, x, c, v, fc)
        return (x := c + GOLDEN * (b - c)), lambda v: (c, b, d, x, fd, v)

    return (yield from _look_ahead((a, b, c, d, fc, fd), step, tol))


def _bisect_search(lo: float, hi: float, flo: float, fhi: float, tol: float = REFINE_TOL):
    """Bisection root on [lo, hi], whose end values flo and fhi differ in sign, as a search for :func:`_lockstep`."""

    def step(s):  # keep the half whose end values differ in sign; an exact zero at x closes the bracket to [x, x]
        lo, hi, flo = s
        mid = 0.5 * (lo + hi)
        return mid, lambda v: (mid, mid, v) if v == 0.0 else (mid, hi, v) if (v < 0.0) == (flo < 0.0) else (lo, mid, flo)

    return (yield from _look_ahead((lo, lo, flo) if flo == 0.0 else (hi, hi, fhi) if fhi == 0.0 else (lo, hi, flo), step, tol))


def _strict_maxima(signal: np.ndarray, periodic: bool) -> np.ndarray:
    """Indices of the samples above both neighbours; the two ends count only on a periodic curve, where they meet."""
    if periodic:
        signal = np.concatenate((signal[-1:], signal, signal[:1]))
    inner = signal[1:-1]
    return np.flatnonzero((inner > signal[:-2]) & (inner > signal[2:])) + (0 if periodic else 1)


def _principal_peak(values: np.ndarray, baseline: float | None) -> tuple[int, float, float]:
    """Sample index, sign (1 upright, -1 inverted) and baseline of the principal fringe; see :func:`fwhm`."""
    maxima, minima = _strict_maxima(values, False), _strict_maxima(-values, False)
    if not len(maxima) and not len(minima):
        raise NoPeak("curve is monotone over its domain")
    vmin, vmax = float(np.min(values)), float(np.max(values))
    base_up = vmin if baseline is None else float(baseline)
    base_down = vmax if baseline is None else float(baseline)
    up, down = values[maxima] - base_up, base_down - values[minima]
    up_dev, down_dev = up.max(initial=-math.inf), down.max(initial=-math.inf)
    if down_dev > up_dev + 1e-12 * max(1.0, vmax - vmin):
        dev, extrema, devs, sign, base = down_dev, minima, down, -1.0, base_down
    else:
        dev, extrema, devs, sign, base = up_dev, maxima, up, 1.0, base_up
    if not dev > 0.0:  # also a NaN baseline
        raise NoPeak("no extremum stands out from the baseline")
    return int(extrema[devs.argmax()]), sign, base


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window bounds must be finite")
    if not hi > lo:
        raise ValueError("window must have positive width")
    phis, values = curve.phis, curve.values
    period = phis[-1] - phis[0] + (phis[1] - phis[0])  # the span plus one step
    if len(phis) * TWO_PI / period < 1000:
        raise ValueError("peak counting needs at least 1000 samples per period")

    if midline is None:
        windowed = values[_in_window(phis, lo, hi)[1]]
        if not len(windowed):
            return np.empty(0, int), 0.0
        mid = 0.5 * (float(np.max(windowed)) + float(np.min(windowed)))
    else:
        mid = float(midline)

    if side == "upper":
        signal = values - mid
    elif side == "lower":
        signal = mid - values
    else:
        signal = np.abs(values - mid)
    peaks = _strict_maxima(signal, abs(period - TWO_PI) < 1e-9)
    return peaks[signal[peaks] > threshold], mid


def _in_window(positions: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions mapped into [lo, lo + 2 pi), and which of them lie inside the window (all, if it spans a period)."""
    mapped = lo + (positions - lo) % TWO_PI
    return mapped, (mapped <= hi) | (hi - lo >= TWO_PI - 1e-12)


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
        positions = phis[raw]
    else:
        step = phis[1] - phis[0]
        if side == "upper":
            g = f
        elif side == "lower":
            g = lambda x: -f(x)
        else:
            g = lambda x: np.abs(f(x) - mid)
        positions = np.array(_lockstep(g, [_golden_search(phis[i] - step, phis[i] + step) for i in raw]), dtype=float)
    mapped, inside = _in_window(positions, lo, hi)
    return np.sort(mapped[inside]).tolist()


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
            rows.append((r, phase_sensitivity(state_a, state_b, MziConfig(phi=phi, loss_r=r), scheme).ratio))
        else:
            rows.append((r, fwhm(sample_curve(state_a, state_b, scheme, loss_r=r))))
    return rows


def range_from_phase(phi: float, wavelength: float) -> float:
    """Target distance for a measured round-trip phase at the given wavelength."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return phi * wavelength / (4.0 * math.pi)
