import cmath
import math

import numpy as np
import pytest

from qlidar import states
from qlidar.states import (
    DegenerateState,
    StateKind,
    SuperposedState,
    density_operator,
    gram_sum,
    make_state,
    mean_photon_number,
    overlap,
    vacuum,
)

ALL_KINDS = list(StateKind)
ALPHA2_GRID = [0.1, 0.5, 2.0, 8.0, 20.0]


def fock_mean_photon(state, cutoff):
    """Independent check: expand in the number basis and sum n |c_n|^2."""
    ls = np.arange(cutoff + 1)
    coeffs = np.zeros(cutoff + 1, dtype=complex)
    from scipy.special import gammaln

    for w, a in zip(state.weights, state.amplitudes):
        if a == 0:
            coeffs[0] += w
            continue
        logmag = -0.5 * abs(a) ** 2 + ls * math.log(abs(a)) - 0.5 * gammaln(ls + 1)
        coeffs += w * np.exp(logmag + 1j * ls * np.angle(a))
    return float(np.sum(ls * np.abs(coeffs) ** 2))


class TestOverlap:
    def test_identity(self):
        assert overlap(1.3 - 0.4j, 1.3 - 0.4j) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum(self):
        a = 0.9 + 0.2j
        assert overlap(0.0, a) == pytest.approx(math.exp(-0.5 * abs(a) ** 2), abs=1e-15)

    def test_opposite(self):
        assert overlap(1.5, -1.5) == pytest.approx(math.exp(-2 * 1.5**2), abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = [complex(*rng.normal(size=2)) for _ in range(2)]
            assert abs(overlap(a, b)) <= 1.0 + 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            overlap(complex("inf"), 1.0)


class TestMakeState:
    def test_cs_single_term(self):
        s = make_state(StateKind.CS, 2.0)
        assert len(s.weights) == 1
        assert s.weights[0] == 1.0
        assert s.amplitudes[0] == 2.0

    def test_mps0_structure(self):
        alpha = 1.1 + 0.3j
        s = make_state(StateKind.MPS0, alpha)
        assert len(s.weights) == 4
        amps = s.amplitudes
        assert np.allclose(amps, [alpha, 1j * alpha, -alpha, -1j * alpha])
        w = s.weights
        assert np.allclose(w, w[0])

    def test_mps_weight_phases(self):
        s = make_state(StateKind.MPS3, 1.0)
        w = s.weights
        ratios = w / w[0]
        assert np.allclose(ratios, [1, (-1j) ** 3, (-1j) ** 6, (-1j) ** 9])

    def test_ecss_structure(self):
        alpha = 0.8
        s = make_state(StateKind.ECSS, alpha)
        assert len(s.weights) == 2
        assert np.allclose(s.amplitudes, [1j * alpha, -1j * alpha])
        assert s.weights[0] == pytest.approx(s.weights[1])

    def test_custom_is_an_unknown_kind(self):
        # an explicit superposition is SuperposedState(weights, amplitudes), not a kind
        valid = "cs, ecss, mps0, mps1, mps2, mps3"
        with pytest.raises(ValueError, match=f"^unknown state kind 'custom' \\(expected one of: {valid}\\)$"):
            StateKind.parse("custom")
        with pytest.raises(ValueError, match="^unknown state kind 'custom'$"):
            make_state("custom", 1.0)

    def test_kind_parse(self):
        assert StateKind.parse(" MPS2 ") is StateKind.MPS2
        with pytest.raises(ValueError):
            StateKind.parse("mps7")


class TestNormalization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("alpha2", ALPHA2_GRID)
    def test_unit_gram_sum(self, kind, alpha2):
        s = make_state(kind, math.sqrt(alpha2))
        assert gram_sum(s.weights, s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_state_validates_once(self, monkeypatch):
        calls = []
        validate = states._coherent_arrays
        monkeypatch.setattr(states, "_coherent_arrays", lambda w, a: calls.append(1) or validate(w, a))
        make_state(StateKind.MPS1, 1.0)
        assert len(calls) == 1

    def test_mps0_at_zero(self):
        assert gram_sum([1j**0] * 4, [0.0] * 4) ** -0.5 == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, 1e-3, -1.7, math.sqrt(2.0), 30.0, 1e150])
    def test_real_coherent_weight_is_exactly_one(self, alpha):
        # the 1x1 overlap exponent -|a|^2 + conj(a) a is exactly 0 for real a
        assert make_state(StateKind.CS, alpha).weights[0] == 1.0
        assert vacuum().weights[0] == 1.0

    def test_cs_is_unity(self):
        assert gram_sum([1.0], [1.7]) ** -0.5 == pytest.approx(1.0)

    def test_gram_matches_paired_form(self):
        # two independent routes: Gram matrix vs the +/- scalar expression
        from qlidar.closedform import normalization_mps

        for j in range(4):
            for alpha2 in (0.5, 2.0, 8.0):
                weights = [(-1j) ** (j * m) for m in range(4)]
                amplitudes = [1j**m * math.sqrt(alpha2) for m in range(4)]
                assert gram_sum(weights, amplitudes) ** -0.5 == pytest.approx(
                    normalization_mps(j, alpha2), abs=1e-12
                )

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateState):
            make_state(StateKind.MPS1, 0.0)
        with pytest.raises(DegenerateState):
            make_state(StateKind.MPS3, 1e-9)

    def test_degeneracy_is_relative_to_the_largest_weight(self):
        # a valid coherent state whose Gram sum, 1e-14, is small only because its weight is
        s = SuperposedState([1e-7], [0.3])
        assert s.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert gram_sum(s.weights, s.amplitudes) == pytest.approx(1.0, abs=1e-12)
        # weights that are all zero leave no scale to compare with and stay degenerate
        with pytest.raises(DegenerateState, match="^Gram sum 0.000e[+]00 below 0$"):
            SuperposedState([0.0, 0.0], [0.3, -0.3])

    def test_explicit_terms_normalized(self):
        s = SuperposedState([0.3, 2.0 - 1.0j], [0.5, -0.2 + 0.1j])
        assert gram_sum(s.weights, s.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestMeanPhotonNumber:
    def test_coherent(self):
        assert mean_photon_number(make_state(StateKind.CS, 1.4 + 0.7j)) == pytest.approx(
            abs(1.4 + 0.7j) ** 2, abs=1e-12
        )

    def test_vacuum(self):
        assert mean_photon_number(vacuum()) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind,limit", [(StateKind.MPS1, 1.0), (StateKind.MPS2, 2.0), (StateKind.MPS3, 3.0)])
    def test_small_alpha_limits(self, kind, limit):
        s = make_state(kind, math.sqrt(1e-3))
        assert mean_photon_number(s) == pytest.approx(limit, abs=1e-3)

    def test_mps0_large_alpha_vs_fock_series(self):
        s = make_state(StateKind.MPS0, math.sqrt(10.0))
        n = mean_photon_number(s)
        assert n == pytest.approx(10.0, abs=2e-3)
        assert n == pytest.approx(fock_mean_photon(s, 60), abs=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_fock_series(self, kind):
        s = make_state(kind, math.sqrt(2.0))
        assert mean_photon_number(s) == pytest.approx(fock_mean_photon(s, 40), abs=1e-10)

    @pytest.mark.parametrize("kind", [StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3])
    def test_high_energy_limit(self, kind):
        s = make_state(kind, math.sqrt(20.0))
        assert mean_photon_number(s) == pytest.approx(20.0, rel=1e-3)


class TestEcssEquivalence:
    def test_matches_general_coefficient_form(self):
        alpha = math.sqrt(2.0)
        ecss = make_state(StateKind.ECSS, alpha)
        general = SuperposedState([0.0, 1.0, 0.0, 1.0], [alpha, 1j * alpha, -alpha, -1j * alpha])
        assert mean_photon_number(ecss) == pytest.approx(mean_photon_number(general), abs=1e-12)
        from qlidar import detection, interferometer

        cfg = interferometer.MziConfig(phi=1.2, loss_r=0.3)
        out_e = interferometer.propagate(ecss, vacuum(), cfg)
        out_g = interferometer.propagate(general, vacuum(), cfg)
        assert detection.parity_expectation(out_e) == pytest.approx(
            detection.parity_expectation(out_g), abs=1e-12
        )
        assert detection.z_expectation(out_e) == pytest.approx(
            detection.z_expectation(out_g), abs=1e-12
        )


class TestDyads:
    def test_pure_state_trace(self):
        s = make_state(StateKind.MPS2, 1.0 + 0.5j)
        mix = density_operator(s)
        assert mix.coeffs.shape == (4, 4)
        assert mix.trace() == pytest.approx(1.0, abs=1e-12)

    def test_weights_normalized_on_construction(self):
        assert SuperposedState([2.0], [1.0]).weights.tolist() == [1.0]
        assert density_operator(SuperposedState([2.0], [1.0])).trace() == 1.0

    @pytest.mark.parametrize("flag", ["normalized", "normalize"])
    def test_no_normalization_flag(self, flag):
        # normalization is part of construction, so no caller can claim or skip it
        with pytest.raises(TypeError):
            SuperposedState([2.0], [1.0], **{flag: True})

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            SuperposedState([], [])

    @pytest.mark.parametrize(
        "weights,amplitudes",
        [([1.0, 1.0], [0.5]), ([[1.0]], [[0.5]]), ([math.nan], [0.5]), ([1.0], [complex(0.5, math.inf)])],
    )
    def test_malformed_arrays_rejected(self, weights, amplitudes):
        with pytest.raises(ValueError):
            SuperposedState(weights, amplitudes)
