import math

import numpy as np
import pytest
import scipy.linalg

from qlidar import detection, fock_oracle, wigner
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, make_state, vacuum

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
