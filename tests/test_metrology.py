import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_in_window, reference_principal_peak
from qlidar import detection, metrology as met
from qlidar import states
from qlidar.detection import Scheme
from qlidar.states import StateKind, make_state, vacuum

BENCH_WIDTHS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "fwhm.json"
KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]


def scalar_bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFwhm:
    def test_coherent_parity_width(self):
        # independent oracle: solve exp(-2 a2 sin^2(phi/2)) = (1 + exp(-2 a2)) / 2
        alpha2 = 2.0
        half_level = 0.5 * (1 + math.exp(-2 * alpha2))
        crossing = scalar_bisect(
            lambda phi: math.exp(-2 * alpha2 * math.sin(phi / 2) ** 2) - half_level, 0.0, math.pi
        )
        expected = 2 * crossing
        curve = met.sample_curve(make_state(StateKind.CS, math.sqrt(alpha2)), vacuum(), Scheme.PARITY)
        width = met.fwhm(curve)
        assert width == pytest.approx(expected, abs=1e-6)
        assert width == pytest.approx(1.693, abs=1e-3)

    def test_symmetric_crossings(self):
        alpha2 = 2.0
        half_level = 0.5 * (1 + math.exp(-2 * alpha2))
        crossing = scalar_bisect(
            lambda phi: math.exp(-2 * alpha2 * math.sin(phi / 2) ** 2) - half_level, 0.0, math.pi
        )
        curve = met.sample_curve(make_state(StateKind.CS, math.sqrt(alpha2)), vacuum(), Scheme.PARITY)
        # even curve: width is twice the right crossing
        assert met.fwhm(curve) / 2 == pytest.approx(crossing, abs=1e-7)

    def test_affine_invariance(self):
        base = met.sample_curve(make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), Scheme.PARITY)
        f = base.evaluator
        scaled = met.SignalCurve(
            phis=base.phis,
            values=0.25 * base.values + 3.0,
            evaluator=lambda phi: 0.25 * f(phi) + 3.0,
        )
        assert met.fwhm(scaled) == pytest.approx(met.fwhm(base), abs=1e-9)

    def test_monotone_curve_has_no_peak(self):
        curve = met.SignalCurve(phis=np.linspace(0, 1, 50), values=np.linspace(0, 1, 50))
        with pytest.raises(met.NoPeak):
            met.fwhm(curve)

    def test_crossing_bracket_widens_past_the_samples(self):
        # the samples cross the half level at +-pi/2 and the evaluator at +-pi/1.8, so each
        # crossing search moves its outer end past the samples until the evaluator changes sign
        phis = met.periodic_phase_grid()
        wider = lambda x: np.cos(0.9 * x)
        curve = met.SignalCurve(phis=phis, values=np.cos(phis), evaluator=wider)
        assert met.fwhm(curve) == pytest.approx(2 * math.pi / 1.8, abs=2 * met.REFINE_TOL)

    def test_half_level_below_the_samples(self):
        # z of cs at |alpha|^2 = 0.5 stays above 0.6: measured from a zero baseline, its half level is never crossed
        curve = met.sample_curve(make_state(StateKind.CS, math.sqrt(0.5)), vacuum(), Scheme.Z)
        with pytest.raises(met.NoPeak, match="^half level is never crossed on both sides of the peak$"):
            met.fwhm(curve, baseline=0.0)

    def test_inverted_peak(self):
        phis = np.linspace(-1, 1, 401)
        values = 1.0 - 0.8 * np.exp(-((phis / 0.2) ** 2))
        curve = met.SignalCurve(phis=phis, values=values)
        sigma_width = 0.2 * 2 * math.sqrt(math.log(2))
        assert met.fwhm(curve) == pytest.approx(sigma_width, rel=1e-3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zscheme_decreases_with_energy(self, kind):
        widths = []
        for alpha2 in (0.5, 1.0, 2.0, 4.0, 8.0):
            curve = met.sample_curve(make_state(kind, math.sqrt(alpha2)), vacuum(), Scheme.Z)
            widths.append(met.fwhm(curve))
        assert all(widths[i] > widths[i + 1] for i in range(len(widths) - 1))

    def test_six_states_converge_at_high_energy(self):
        widths = []
        for kind in KINDS:
            curve = met.sample_curve(make_state(kind, math.sqrt(8.0)), vacuum(), Scheme.Z)
            widths.append(met.fwhm(curve))
        assert (max(widths) - min(widths)) / min(widths) < 0.05


class TestStoredWidths:
    def test_reproduces_bench_refs(self):
        # the eight parity/mps3 widths meet their half level at a flat inflection,
        # where one ulp of evaluator change moves the crossing far beyond the tolerance
        refs = json.loads(BENCH_WIDTHS.read_text())
        grid = refs["alpha2_grid"]
        off = {}
        for key, width in refs["widths"].items():
            scheme, kind, index = key.split("/")
            state = make_state(StateKind.parse(kind), math.sqrt(grid[int(index)]))
            got = met.fwhm(met.sample_curve(state, vacuum(), Scheme.parse(scheme)))
            if abs(got - width) > 2 * met.REFINE_TOL:
                off[key] = got - width
        assert len(refs["widths"]) == 96
        assert off == {}


class TestSignalCurve:
    @pytest.mark.parametrize(
        "phis,values,message",
        [
            (np.zeros((2, 2)), np.zeros((2, 2)), "phis and values must be matching 1-D arrays"),
            (np.linspace(0.0, 1.0, 5), np.zeros(4), "phis and values must be matching 1-D arrays"),
            ([0.0], [1.0], "phis must be strictly increasing with at least 2 samples"),
            ([0.0, 1.0, 1.0], [0.0, 1.0, 0.0], "phis must be strictly increasing with at least 2 samples"),
            ([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], "phis must be strictly increasing with at least 2 samples"),
            # a NaN phase passes the increasing check, and fwhm never returned on an infinite one
            ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0], "phis must be finite"),
            ([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0], "phis must be finite"),
            ([0.0, np.nan, 1.0], [0.0, 1.0, 0.0], "phis must be finite"),
            ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], "values must be finite"),
            ([0.0, 1.0, 2.0], [0.0, -np.inf, 0.0], "values must be finite"),
        ],
    )
    def test_rejects_malformed_samples(self, phis, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            met.SignalCurve(phis=phis, values=values)


class TestPeakCount:
    def _curve(self, kind, alpha2=2.0, scheme=Scheme.PARITY):
        return met.sample_curve(make_state(kind, math.sqrt(alpha2)), vacuum(), scheme)

    def test_coherent_single_fringe(self):
        assert len(met.peak_locations(self._curve(StateKind.CS), (-math.pi, math.pi))) == 1

    def test_cat_two_fringes(self):
        assert len(met.peak_locations(self._curve(StateKind.ECSS), (-math.pi, math.pi))) == 2

    @pytest.mark.parametrize("kind", [StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3])
    def test_folded_counting_sees_inverted_fringes(self, kind):
        count = len(met.peak_locations(self._curve(kind), (-math.pi, math.pi), side="folded", midline=0.0))
        assert count == 2

    def test_folded_coherent_stays_single(self):
        count = len(met.peak_locations(self._curve(StateKind.CS), (-math.pi, math.pi), side="folded", midline=0.0))
        assert count == 1

    def test_window_translation_invariance(self):
        curve = self._curve(StateKind.ECSS)
        base = len(met.peak_locations(curve, (-math.pi, math.pi)))
        assert len(met.peak_locations(curve, (math.pi, 3 * math.pi))) == base
        assert len(met.peak_locations(curve, (-math.pi + 2 * math.pi, math.pi + 2 * math.pi))) == base

    def test_scans_match_per_sample_loops(self):
        # tie-heavy integer samples: the array scans must pick exactly the indices, the principal
        # peak and the window members of the per-sample loops they replaced
        def loop_extrema(v):
            maxima = [i for i in range(1, len(v) - 1) if v[i - 1] < v[i] > v[i + 1]]
            minima = [i for i in range(1, len(v) - 1) if v[i - 1] > v[i] < v[i + 1]]
            return maxima, minima

        def loop_peaks(v, periodic, threshold):
            n = len(v)
            inner = range(n) if periodic else range(1, n - 1)
            return [i for i in inner if v[i - 1] < v[i] > v[(i + 1) % n] and v[i] > threshold]

        rng = np.random.default_rng(11)
        for n, periodic in ((2048, True), (2048, False), (5, False)):
            for _ in range(20):
                values = rng.integers(-2, 3, size=n).astype(float)
                maxima, minima = met._strict_maxima(values, False), met._strict_maxima(-values, False)
                assert (maxima.tolist(), minima.tolist()) == loop_extrema(values)
                for baseline in (None, 0.0, -0.5, 2.0, math.nan):
                    try:
                        want = reference_principal_peak(values, baseline)
                    except met.NoPeak as exc:
                        with pytest.raises(met.NoPeak, match=f"^{exc}$"):
                            met._principal_peak(values, baseline)
                    else:
                        assert met._principal_peak(values, baseline) == want
                lo = float(rng.uniform(-8.0, 8.0))
                for width in (1e-4, 2.5, 2 * math.pi - 2e-12, 2 * math.pi - 1e-13, 2 * math.pi, 9.0):
                    hi = lo + width
                    edges = [lo, hi, lo - 1e-14, lo - 2 * math.pi, hi + 2 * math.pi]
                    positions = np.concatenate((rng.uniform(-20.0, 20.0, n), edges))
                    mapped, inside = met._in_window(positions, lo, hi)
                    assert np.sort(mapped[inside]).tolist() == reference_in_window(positions, lo, hi)
                if n < 1000:
                    continue
                span = 2 * math.pi if periodic else 3.0
                phis = np.linspace(-math.pi, -math.pi + span, n, endpoint=not periodic)
                curve = met.SignalCurve(phis=phis, values=values)
                got = met.peak_locations(curve, (-math.pi, math.pi), midline=0.0, threshold=0.5)
                assert got == pytest.approx(sorted(phis[loop_peaks(values, periodic, 0.5)]), abs=1e-12)

    def test_default_midline_window_without_sample(self):
        curve = self._curve(StateKind.ECSS)
        step = curve.phis[1] - curve.phis[0]
        lo = curve.phis[2048] + 0.25 * step
        assert met.peak_locations(curve, (lo, lo + 0.5 * step)) == []

    def test_coarse_sampling_rejected(self):
        phis = np.linspace(-math.pi, math.pi, 64)
        curve = met.SignalCurve(phis=phis, values=np.cos(phis))
        with pytest.raises(ValueError):
            met.peak_locations(curve, (-math.pi, math.pi))

    @pytest.mark.parametrize(
        "window,options,message",
        [
            ((-1, 1), {"side": "middle"}, "side must be 'upper', 'lower' or 'folded'"),
            ((1.0, 1.0), {"side": "upper"}, "window must have positive width"),
            ((-math.inf, 1.0), {"side": "upper"}, "window bounds must be finite"),
            ((0.0, math.inf), {"side": "folded"}, "window bounds must be finite"),
            ((math.nan, 1.0), {"side": "lower"}, "window bounds must be finite"),
            # a NaN midline or threshold fails every comparison, so no sample would count as a peak
            ((-math.pi, math.pi), {"side": "folded", "midline": math.nan}, "midline and threshold must be finite"),
            ((-math.pi, math.pi), {"side": "folded", "midline": 0.0, "threshold": math.nan}, "midline and threshold must be finite"),
            ((-math.pi, math.pi), {"side": "upper", "midline": -math.inf}, "midline and threshold must be finite"),
            ((-math.pi, math.pi), {"side": "upper", "threshold": math.inf}, "midline and threshold must be finite"),
        ],
    )
    def test_side_validation(self, window, options, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            met.peak_locations(self._curve(StateKind.CS), window, **options)

    def test_locations_are_refined(self):
        locs = met.peak_locations(self._curve(StateKind.ECSS), (-math.pi, math.pi))
        assert len(locs) == 2
        assert min(abs(l) for l in locs) < 1e-6  # central fringe sits at zero


class TestSensitivity:
    def test_snl_values(self):
        assert met.snl(make_state(StateKind.CS, 2.0), vacuum()) == pytest.approx(0.5, abs=1e-12)
        n51 = make_state(StateKind.MPS0, math.sqrt(51.0))
        z52 = make_state(StateKind.CS, math.sqrt(52.0))
        assert met.snl(n51, z52) == pytest.approx(1 / math.sqrt(103.0), abs=1e-12)

    def test_snl_zero_energy(self):
        with pytest.raises(met.ZeroEnergy):
            met.snl(vacuum(), vacuum())

    def test_coherent_saturates_floor_near_zero(self):
        (point,) = met.sensitivity_curve(make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), Scheme.PARITY, [0.02])
        assert point.ratio == pytest.approx(1.0, abs=0.01)

    def test_stationary_point_marker(self):
        (point,) = met.sensitivity_curve(make_state(StateKind.ECSS, 1.0), vacuum(), Scheme.PARITY, [0.0])
        assert math.isinf(point.delta_phi)
        assert math.isinf(point.ratio)

    def test_points_hold_python_floats(self):
        points = met.sensitivity_curve(make_state(StateKind.ECSS, 1.0), vacuum(), Scheme.PARITY, [0.0, 0.4])
        assert all(type(v) is float for p in points for v in (p.phi, p.delta_phi, p.snl))
        assert math.isinf(points[0].delta_phi)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("loss_r", [0.0, 0.3])
    def test_matches_value_and_slope_curves(self, scheme, loss_r):
        sa, sb = make_state(StateKind.MPS1, math.sqrt(2.0)), make_state(StateKind.CS, 1.0)
        grid = np.linspace(-3.0, 3.0, 61)
        points = met.sensitivity_curve(sa, sb, scheme, grid, loss_r)
        values = detection.expectation_curve(sa, sb, scheme, grid, loss_r)
        slopes = detection.expectation_derivative_curve(sa, sb, scheme, grid, loss_r)
        bound = detection._slope_bound(*detection._input_pairs(sa, sb))
        for point, value, slope in zip(points, values, slopes):
            variance = max(0.0, 1.0 - value * value) if scheme is Scheme.PARITY else max(0.0, value - value * value)
            flat = abs(slope) <= bound or variance <= 0.0
            assert point.delta_phi == (math.inf if flat else math.sqrt(variance) / abs(slope))

    def test_coherent_never_beats_floor(self):
        grid = np.linspace(0.01, math.pi - 0.01, 400)
        points = met.sensitivity_curve(make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), Scheme.PARITY, grid)
        assert min(p.ratio for p in points) >= 1.0 - 1e-6

    def test_mixed_inputs_beat_floor(self):
        grid = np.linspace(0.05, math.pi - 0.05, 600)
        points = met.sensitivity_curve(
            make_state(StateKind.MPS1, math.sqrt(2.0)),
            make_state(StateKind.CS, math.sqrt(2.0)),
            Scheme.PARITY,
            grid,
        )
        assert min(p.ratio for p in points) < 1.0


class TestLossSweep:
    def test_zero_loss_matches_lossless(self):
        sa = make_state(StateKind.ECSS, math.sqrt(2.0))
        rows = met.loss_sweep(sa, vacuum(), 0.4, Scheme.PARITY, [0.0, 0.3])
        (lossless,) = met.sensitivity_curve(sa, vacuum(), Scheme.PARITY, [0.4])
        assert rows[0][1] == pytest.approx(lossless.ratio, abs=1e-12)

    def test_coherent_ratio_degrades_monotonically(self):
        rows = met.loss_sweep(
            make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), 0.02, Scheme.PARITY, np.linspace(0, 0.9, 10)
        )
        vals = [v for _, v in rows]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_equal_energy_zscheme_widths(self):
        # all six states at mean photon number 3; the j=0 state keeps the
        # narrowest zero-count fringe with and without loss
        alpha2 = {
            StateKind.CS: 3.0,
            StateKind.ECSS: 3.014483,
            StateKind.MPS0: 2.793199,
            StateKind.MPS1: 3.225588,
            StateKind.MPS2: 3.267181,
            StateKind.MPS3: 0.01,
        }
        for kind, a2 in alpha2.items():
            n = states.mean_photon_number(make_state(kind, math.sqrt(a2)))
            assert n == pytest.approx(3.0, abs=2e-5)
        for loss_r in (0.0, 0.3):
            widths = {
                kind: met.loss_sweep(
                    make_state(kind, math.sqrt(a2)), vacuum(), 0.0, Scheme.Z, [loss_r], metric="fwhm"
                )[0][1]
                for kind, a2 in alpha2.items()
            }
            assert min(widths, key=widths.get) is StateKind.MPS0

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            met.loss_sweep(make_state(StateKind.CS, 1.0), vacuum(), 0.1, Scheme.Z, [0.0], metric="visibility")


class TestRangeConversion:
    def test_zero(self):
        assert met.range_from_phase(0.0, 1.0) == 0.0

    def test_full_turn(self):
        assert met.range_from_phase(4 * math.pi, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_telecom_wavelength(self):
        assert met.range_from_phase(math.pi, 1550e-9) == pytest.approx(3.875e-7, rel=1e-12)

    def test_wavelength_validation(self):
        with pytest.raises(ValueError):
            met.range_from_phase(1.0, 0.0)

    @pytest.mark.parametrize("phi,wavelength", [(0.5, math.nan), (0.5, math.inf), (math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_non_finite(self, phi, wavelength):
        with pytest.raises(ValueError, match="^phase and wavelength must be finite$"):
            met.range_from_phase(phi, wavelength)
