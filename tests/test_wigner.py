import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from qlidar import detection, fock_oracle, wigner
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import CoherentOperator, StateKind, density_operator, make_state, vacuum

from helpers import reference_wigner

KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
ALPHA = 1.0 + 1.0j  # x1 = x2 = 1


def displaced_parity_wigner(state, lam, cutoff=40):
    """Independent route: number-basis density matrix and exponentiated displacement."""
    coeffs = np.zeros(cutoff + 1, dtype=complex)
    for w, a in zip(state.weights, state.amplitudes):
        coeffs += w * fock_oracle.coherent_amplitudes(a, cutoff)
    lower = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1)
    displacement = scipy.linalg.expm(lam * lower.conj().T - np.conj(lam) * lower)
    parity = np.diag((-1.0) ** np.arange(cutoff + 1))
    rho = np.outer(coeffs, np.conj(coeffs))
    return 2 / math.pi * float(np.trace(rho @ displacement @ parity @ displacement.conj().T).real)


class TestWignerPoint:
    def test_coherent_peak(self):
        alpha = 0.8 - 0.3j
        assert wigner.wigner_point(make_state(StateKind.CS, alpha), alpha) == pytest.approx(
            2 / math.pi, abs=1e-12
        )

    def test_vacuum_origin(self):
        assert wigner.wigner_point(vacuum(), 0.0) == pytest.approx(2 / math.pi, abs=1e-14)

    def test_coherent_nonnegative(self):
        state = make_state(StateKind.CS, ALPHA)
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam = complex(*rng.normal(scale=2.0, size=2))
            assert wigner.wigner_point(state, lam) >= -1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_displaced_parity(self, kind):
        state = make_state(kind, ALPHA)
        for lam in (0.2 + 0.1j, -0.9 + 0.6j, 1.1j):
            assert wigner.wigner_point(state, lam) == pytest.approx(
                displaced_parity_wigner(state, lam), abs=1e-8
            )


class TestWignerGrid:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_integral(self, kind):
        grid = wigner.wigner_grid(make_state(kind, ALPHA))
        assert grid.integral == pytest.approx(1.0, abs=1e-3)

    def test_bound_respected(self):
        grid = wigner.wigner_grid(make_state(StateKind.MPS1, ALPHA))
        assert float(np.max(np.abs(grid.values))) <= 2 / math.pi + 1e-9

    @pytest.mark.parametrize("kind", KINDS[1:])
    def test_multi_component_negativity(self, kind):
        grid = wigner.wigner_grid(make_state(kind, ALPHA))
        assert float(np.min(grid.values)) < 0.0

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            wigner.wigner_grid(vacuum(), (-1, 1), (-1, 1), resolution=1)

    def test_explicit_ranges(self):
        grid = wigner.wigner_grid(make_state(StateKind.CS, 1 + 1j), (-5, 5), (-5, 5), 101)
        assert grid.integral == pytest.approx(1.0, abs=1e-3)
        assert grid.values.shape == (101, 101)

    @pytest.mark.parametrize(
        "y1_range,y2_range",
        [((-math.inf, math.inf), (-1, 1)), ((-1, 1), (math.nan, 1)), ((1, -1), (-1, 1)), ((-1, 1), (2, 2))],
    )
    def test_bad_ranges_rejected(self, y1_range, y2_range):
        with pytest.raises(ValueError):
            wigner.wigner_grid(make_state(StateKind.CS, 1), y1_range, y2_range, 5)


class TestSamplingGuard:
    """Each axis step must stay below the Nyquist limit of the fastest non-negligible fringe."""

    def test_undersampled_large_cat_rejected(self):
        # components 20 apart on the default window of +-15: fringe period 0.157 against a 0.15 step
        state = make_state(StateKind.MPS1, 10.0)
        with pytest.raises(ValueError, match="smallest resolution that resolves them is 383"):
            wigner.wigner_grid(state)
        with pytest.raises(ValueError, match="is 383"):
            wigner.wigner_grid(state, resolution=382)
        assert wigner.wigner_grid(state, resolution=383).integral == pytest.approx(1.0, abs=1e-3)

    def test_resolved_large_cat_integrates_to_one(self):
        grid = wigner.wigner_grid(make_state(StateKind.MPS1, 10.0), resolution=801)
        assert grid.integral == pytest.approx(1.0, abs=1e-3)

    def test_each_axis_has_its_own_limit(self):
        # components +-5i differ along y2 only, so their fringes run along y1 at angular frequency 20
        state = make_state(StateKind.ECSS, 5.0)
        wigner.wigner_grid(state, (-1, 1), (-8, 8), resolution=14)
        with pytest.raises(ValueError, match="is 103"):
            wigner.wigner_grid(state, (-8, 8), (-1, 1), resolution=14)

    def test_negligible_coefficients_are_ignored(self):
        amps = np.array([10.0, -10.0])
        tiny = wigner.NEGLIGIBLE_COEFF
        op = CoherentOperator(np.array([[0.5, tiny], [tiny, 0.5]], dtype=complex), amps)
        assert wigner.wigner_grid(op, resolution=201).integral == pytest.approx(1.0, abs=1e-3)
        op = CoherentOperator(np.array([[0.5, 2 * tiny], [2 * tiny, 0.5]], dtype=complex), amps)
        with pytest.raises(ValueError, match="undersamples"):
            wigner.wigner_grid(op, resolution=201)

    def test_large_amplitude_stays_finite(self):
        # |alpha| = 25 out to |y| = 10: a factor exp(-2 y^2 + 4 y Im k) that skips completing the square overflows
        state = make_state(StateKind.MPS3, 25 * cmath.exp(0.3j))
        op = density_operator(state)
        grid = wigner.wigner_grid(state, (-10, 10), (-9.5, 10.5), resolution=611)
        assert np.isfinite(grid.values).all()
        assert float(np.max(np.abs(grid.values))) <= wigner.WIGNER_BOUND + wigner.BOUND_TOL
        assert float(np.min(grid.values)) < -0.5
        rng = np.random.default_rng(5)
        i, j = rng.integers(611, size=(2, 40))
        lam = grid.y1_axis[i] + 1j * grid.y2_axis[j]
        tol = 1e-13 * float(np.sum(np.abs(op.coeffs)))
        assert np.max(np.abs(grid.values[i, j] - reference_wigner(op, lam))) <= tol


class TestResolutionCap:
    """Grids above MAX_RESOLUTION points per axis are rejected before anything is allocated."""

    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("grid evaluated past the cap")

        monkeypatch.setattr(wigner, "_evaluate", fail)
        monkeypatch.setattr(wigner.np, "linspace", fail)

    def test_cap_admits_the_existing_grids(self):
        assert wigner.MAX_RESOLUTION >= 801

    def test_requested_resolution_above_cap(self):
        with pytest.raises(ValueError, match=r"resolution must lie in \[2, 1001\]"):
            wigner.wigner_grid(make_state(StateKind.CS, 1.0), (-1, 1), (-1, 1), wigner.MAX_RESOLUTION + 1)
        with pytest.raises(ValueError, match=r"must lie in"):
            wigner.wigner_grid(make_state(StateKind.CS, 1.0), resolution=26740)

    def test_needed_resolution_above_cap(self):
        state = make_state(StateKind.MPS1, 100.0)
        with pytest.raises(ValueError, match="need resolution 26740, above the cap of 1001; .* 26.77 times narrower"):
            wigner.wigner_grid(state, resolution=wigner.MAX_RESOLUTION)

    def test_suggested_window_fits_under_cap(self):
        state = make_state(StateKind.MPS1, 100.0)
        op = density_operator(state)
        span = 2 * wigner.default_window(state)
        assert wigner._min_resolution(op, span, span) == 26740
        assert wigner._min_resolution(op, span / 26.77, span / 26.77) <= wigner.MAX_RESOLUTION


class TestNegativitySummary:
    def test_coherent_no_negativity(self):
        summary = wigner.negativity_summary(wigner.wigner_grid(make_state(StateKind.CS, ALPHA)))
        assert summary.min_value >= -1e-12
        assert summary.negative_volume == pytest.approx(0.0, abs=1e-12)

    def test_odd_components_most_negative(self):
        minima = {
            kind: wigner.negativity_summary(wigner.wigner_grid(make_state(kind, ALPHA))).min_value
            for kind in KINDS
        }
        assert minima[StateKind.MPS1] < 0.0
        assert minima[StateKind.MPS3] < 0.0
        assert abs(minima[StateKind.MPS1]) > abs(minima[StateKind.MPS0])

    def test_negative_volume_positive_for_cat(self):
        summary = wigner.negativity_summary(wigner.wigner_grid(make_state(StateKind.ECSS, ALPHA)))
        assert summary.negative_volume > 0.0


class TestParityLink:
    def test_reduced_port_state(self):
        rng = np.random.default_rng(17)
        kinds = KINDS
        for _ in range(8):
            kind = kinds[rng.integers(len(kinds))]
            sa = make_state(kind, math.sqrt(rng.uniform(0.3, 4.0)))
            sb = make_state(StateKind.CS, math.sqrt(rng.uniform(0.0, 3.0)))
            cfg = MziConfig(phi=float(rng.uniform(-3, 3)), loss_r=float(rng.uniform(0, 0.8)))
            out = propagate(sa, sb, cfg)
            reduced = detection.reduced_port_a(out)
            assert reduced.trace().real == pytest.approx(1.0, abs=1e-10)
            assert math.pi / 2 * wigner.wigner_point(reduced, 0.0) == pytest.approx(
                detection.parity_expectation(out), abs=1e-10
            )
