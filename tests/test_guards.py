"""The package's numerical guards: one residue check, the scaled P(0) floor, one-phase inputs where required, and the limit classes."""

import math
import re

import numpy as np
import pytest

from helpers import reference_mps_z
from qlidar import detection, fock_oracle, metrology, states, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, _input_pairs, _output, propagate
from qlidar.states import StateKind, _real_part, make_state, vacuum


class TestRealPart:
    def test_array_residue_raises_as_the_float_call_on_that_element(self):
        values = np.array([[0.5 + 1e-13j, -5.0], [2.0 + 1.5e-12j, 0.75 + 4e-12j]])
        with pytest.raises(ArithmeticError) as single:
            _real_part(values[1, 1], "sum")
        with pytest.raises(ArithmeticError) as batch:
            _real_part(values, "sum")
        # (1, 0) lies within 1e-12 * |2.0|; (1, 1) fails first, though all lie within 1e-12 * max|real|
        assert str(batch.value) == str(single.value) == "sum has imaginary residue 4.000e-12"

    def test_array_within_the_precheck_returns_its_real_part(self):
        values = np.array([0.5 + 1e-12j, -1e-12j, 3.0, 5e-13j - 7.0])
        real = _real_part(values, "sum")
        assert real.tobytes() == values.real.tobytes()

    def test_residue_tolerance_grows_with_the_real_part(self):
        # max |imag| exceeds the tolerance, yet every element lies within tol * max(1, |real|)
        values = np.array([100.0 + 5e-11j, 1.0 + 1e-12j, -40.0 - 3e-11j])
        assert _real_part(values, "sum").tobytes() == values.real.tobytes()
        assert [_real_part(v, "sum") for v in values] == values.real.tolist()
        with pytest.raises(ArithmeticError):
            _real_part(np.array([1.0 + 2e-12j]), "sum")


class TestNonFinite:
    """NaN fails every comparison, so each guard asks for what passes; an overflow raises, never returns NaN."""

    @pytest.mark.parametrize(
        "value", [complex(math.nan, math.nan), complex(math.nan, 0.0), complex(-math.inf, 0.0), complex(0.5, math.inf)]
    )
    def test_real_part_rejects_float_and_array_alike(self, value):
        with pytest.raises(ArithmeticError, match=r"^sum is not finite: ") as single:
            _real_part(value, "sum")
        # 2.0 + 1.5e-12j fails the whole-array pre-check on its residue but passes per element
        for values in ([0.5, value, -0.25], [0.5, 2.0 + 1.5e-12j, value, -0.25]):
            with pytest.raises(ArithmeticError) as batch:
                _real_part(np.array(values), "sum")
            assert str(batch.value) == str(single.value)

    def test_overflowing_state_raises(self):
        # the Gram sum of mps1 at alpha = 1e160 overflows to NaN; construction raises without a numpy warning
        with pytest.raises(ArithmeticError, match="^Gram sum is not finite"):
            make_state(StateKind.MPS1, 1e160)

    @pytest.mark.parametrize("alpha", [1e154, 1e160])
    def test_overflowing_coherent_state_raises(self, alpha):
        # |alpha|^2 + |alpha|^2 overflows, so the 1x1 pair exponent is -inf or the Gram sum NaN rather than 1
        with pytest.raises(ArithmeticError, match="^Gram sum "):
            make_state(StateKind.CS, alpha)

    def test_overflowing_exponent_is_not_degeneracy(self):
        # |alpha|^2 = 1e308 overflows the pair exponent to -inf, whose overlap 0 is no degenerate superposition
        with pytest.raises(ArithmeticError, match=r"^Gram sum is not finite: \|amplitude\|\^2 1\.000e\+308 ") as info:
            make_state(StateKind.CS, 1e154)
        assert not isinstance(info.value, (states.DegenerateState, ValueError))

    @pytest.mark.parametrize(
        "call,what",
        [(detection.parity_expectation, "parity"), (lambda out: detection.port_distribution(out, cutoff=3), "P(0)")],
        ids=["parity_expectation", "port_distribution"],
    )
    def test_overflowing_output_raises(self, call, what):
        with np.errstate(over="ignore", invalid="ignore"):
            # a coherent state this large fails at construction, so its output is built directly
            out = _output(np.ones(1, dtype=complex), np.array([[1e160, 0.0]], dtype=complex), 0.3, 0.0)
            with pytest.raises(ArithmeticError, match=f"^{re.escape(what)} is not finite"):
                call(out)

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_inverse_norm_rejects_non_finite(self, total):
        with pytest.raises(ArithmeticError, match="^Gram sum is "):
            states._inverse_norm(total)

    def test_wigner_bound_rejects_nan(self, monkeypatch):
        monkeypatch.setattr(wigner, "_evaluate", lambda op, y1, y2: np.full((len(y1), len(y2)), np.nan))
        with pytest.raises(ArithmeticError, match="^Wigner magnitude nan exceeds 2/pi$"):
            wigner.wigner_grid(make_state(StateKind.CS, 1.0), (-1.0, 1.0), (-1.0, 1.0), 3)


class TestP0Floor:
    """Z at one phase or a phase array raises only below -beta, the rounding bound of its P(0) pair sum."""

    STATE = make_state(StateKind.MPS3, math.sqrt(0.01))  # (sum|w|)^2 = 6.1e6: the pair sum cancels hard

    def _beta(self, phi):
        # K^2 2^-53 sum_ij |w_i w_j e^gauss_ij rest_ij|, written out from the pair data
        w, a, rest = detection._pair_data(propagate(self.STATE, vacuum(), MziConfig(phi=phi)))
        aa = np.abs(a) ** 2
        terms = np.abs(w)[:, None] * np.abs(w)[None, :] * np.abs(np.exp(-0.5 * (aa[:, None] + aa[None, :])) * rest)
        return len(w) ** 2 * 2.0**-53 * float(np.sum(terms))

    def _negative_phases(self):
        phis = metrology.periodic_phase_grid()
        values = detection.expectation_curve(self.STATE, vacuum(), Scheme.Z, phis, direct=True)
        return phis[values < detection.NEGATIVE_PROBABILITY_TOL]

    def test_series_reference_matches_the_engine_where_nothing_cancels(self):
        for j, kind in enumerate([StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]):
            for phi in (0.3, 1.1, 2.7):
                for loss_r in (0.0, 0.2):
                    config = MziConfig(phi=phi, loss_r=loss_r)
                    got = detection.expectation(make_state(kind, math.sqrt(2.0)), vacuum(), config, Scheme.Z)
                    assert abs(got - reference_mps_z(j, 2.0, phi, loss_r)) < 1e-14

    def test_z_within_beta_of_the_series_where_the_curve_dips_below_the_floor(self):
        phis = self._negative_phases()
        assert len(phis) == 20
        evaluate = detection.expectation_evaluator(self.STATE, vacuum(), Scheme.Z)
        values = [evaluate(phi) for phi in phis.tolist()]
        assert evaluate(phis).tobytes() == np.array(values).tobytes()
        for phi, value in zip(phis.tolist(), values):
            beta = self._beta(phi)
            assert 1e-10 < beta < 1e-7
            assert abs(value - reference_mps_z(3, 0.01, phi)) <= beta

    def test_distribution_takes_the_floor_of_z(self):
        # the distribution's P(0) is the same pair sum, so it passes wherever Z does
        phis = self._negative_phases().tolist()
        w, a, rest = detection._pair_data(propagate(self.STATE, vacuum(), MziConfig(phi=-3.1185829417715083)))
        aa = np.abs(a) ** 2
        raw = detection._pair_sum(w, np.exp(-0.5 * (aa[:, None] + aa[None, :])) * rest).real
        assert -3.1185829417715083 in phis and raw == pytest.approx(-1.283e-10, abs=1e-13)  # beta = 1.07e-8 there
        for phi in phis:
            out = propagate(self.STATE, vacuum(), MziConfig(phi=phi))
            probs = detection.port_distribution(out).probs
            assert probs[0] == detection.z_expectation(out)
            assert probs[2] == detection.port_distribution(out, cutoff=2).probs[2]

    @pytest.mark.parametrize(
        "p0_of",
        [detection.z_expectation, lambda out: detection.port_distribution(out, cutoff=3).probs[0]],
        ids=["z_expectation", "port_distribution"],
    )
    def test_p0_below_beta_still_raises(self, monkeypatch, p0_of):
        phi = float(self._negative_phases()[0])
        beta = self._beta(phi)
        out = propagate(self.STATE, vacuum(), MziConfig(phi=phi))
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: complex(-0.5 * beta))
        assert p0_of(out) == 0.0
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: complex(-2.0 * beta))
        with pytest.raises(detection.NegativeProbability, match=re.escape(f"P(0) = {-2.0 * beta:.3e}")):
            p0_of(out)

    def test_curve_takes_the_scalar_value_below_the_floor(self):
        # 20 phases, not a period: the kernel runs at each of them, and each raw value lies below the floor
        phis = self._negative_phases()
        got = detection.expectation_curve(self.STATE, vacuum(), Scheme.Z, phis)
        assert got.tobytes() == detection.expectation_evaluator(self.STATE, vacuum(), Scheme.Z)(phis).tobytes()
        assert np.all(got >= 0.0)

    def test_curve_below_beta_raises_the_scalar_message(self, monkeypatch):
        # _pair_sum is the scalar path's sum alone, over (P, K, K) pair terms; the curve kernel sums its own terms
        phis = self._negative_phases()[:1]
        beta = self._beta(float(phis[0]))
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: np.full(x.shape[:-2], -0.5 * beta, dtype=complex))
        assert detection.expectation_curve(self.STATE, vacuum(), Scheme.Z, phis).tolist() == [0.0]
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: np.full(x.shape[:-2], -2.0 * beta, dtype=complex))
        with pytest.raises(detection.NegativeProbability, match=re.escape(f"P(0) = {-2.0 * beta:.3e}")):
            detection.expectation_curve(self.STATE, vacuum(), Scheme.Z, phis)

    def test_each_phase_has_its_own_beta(self, monkeypatch):
        # two phases, gauss = 0: beta is 1.8e-7 where the pair terms are 1e8 and 1.8e-15 where they are 1;
        # over P phases the amplitudes are (P, K) and the overlap product (P, K, K)
        w, a = np.ones(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        rest = np.stack([np.full((2, 2), 1e8, dtype=complex), np.ones((2, 2), dtype=complex)])
        for p0, raises in [((-2e-10, -0.5e-10), None), ((-2e-7, -0.5e-10), -2e-7), ((-2e-10, -1.5e-10), -1.5e-10)]:
            monkeypatch.setattr(detection, "_pair_sum", lambda w, x: np.array(p0, dtype=complex))
            if raises is None:
                assert detection._photon_probabilities(w, a, rest, 0)[0].tolist() == [0.0, 0.0]
            else:
                with pytest.raises(detection.NegativeProbability, match=re.escape(f"P(0) = {raises:.3e}")):
                    detection._photon_probabilities(w, a, rest, 0)

    def test_absolute_floor_still_holds_where_beta_is_tiny(self, monkeypatch):
        out = propagate(make_state(StateKind.CS, 1.0), vacuum(), MziConfig(phi=2.0))  # one term: beta about 1e-16
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: complex(-0.5e-10))
        assert detection.z_expectation(out) == 0.0
        monkeypatch.setattr(detection, "_pair_sum", lambda w, x: complex(-2e-10))
        with pytest.raises(detection.NegativeProbability, match=re.escape("P(0) = -2.000e-10")):
            detection.z_expectation(out)


def _phase_axis_output():
    w, amps = _input_pairs(make_state(StateKind.MPS1, 1.2), vacuum())
    return _output(w, amps, np.array([0.1, 0.5, 0.9]), 0.0)


@pytest.mark.parametrize(
    "call",
    [
        detection.port_distribution,
        lambda out: detection.port_distribution(out, cutoff=2),
        detection.reduced_port_a,
        detection.default_cutoff,
    ],
    ids=["port_distribution", "port_distribution_cutoff", "reduced_port_a", "default_cutoff"],
)
def test_phase_axis_output_rejected(call):
    with pytest.raises(ValueError, match=r"one-phase output of shape \(K, 4\)$"):
        call(_phase_axis_output())


@pytest.mark.parametrize("error", [metrology.NoPeak, states.DegenerateState, fock_oracle.CutoffTooSmall])
def test_limit_classes_are_arithmetic_and_value_errors(error):
    assert issubclass(error, ArithmeticError) and issubclass(error, ValueError)
