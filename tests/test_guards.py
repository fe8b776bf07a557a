"""The package's numerical guards: one residue check, one-phase inputs where required, and the limit classes."""

import math
import re

import numpy as np
import pytest

from qlidar import detection, fock_oracle, metrology, states, wigner
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
        # the Gram sum of mps1 at alpha = 1e160 overflows to NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError, match="^Gram sum is not finite"):
            make_state(StateKind.MPS1, 1e160)

    @pytest.mark.parametrize(
        "call,what",
        [(detection.parity_expectation, "parity"), (lambda out: detection.port_distribution(out, cutoff=3), "P(0)")],
        ids=["parity_expectation", "port_distribution"],
    )
    def test_overflowing_output_raises(self, call, what):
        with np.errstate(over="ignore", invalid="ignore"):
            out = propagate(make_state(StateKind.CS, 1e160), vacuum(), MziConfig(phi=0.3))
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


def _phase_axis_output():
    w, amps = _input_pairs(make_state(StateKind.MPS1, 1.2), vacuum())
    return _output(w, amps, np.array([0.1, 0.5, 0.9]), 0.0)


@pytest.mark.parametrize(
    "call",
    [
        detection.port_distribution,
        lambda out: detection.photon_probability(out, 2),
        detection.reduced_port_a,
        detection.default_cutoff,
    ],
    ids=["port_distribution", "photon_probability", "reduced_port_a", "default_cutoff"],
)
def test_phase_axis_output_rejected(call):
    with pytest.raises(ValueError, match=r"one-phase output of shape \(K, 4\)$"):
        call(_phase_axis_output())


@pytest.mark.parametrize("error", [metrology.NoPeak, states.DegenerateState, fock_oracle.CutoffTooSmall])
def test_limit_classes_are_arithmetic_and_value_errors(error):
    assert issubclass(error, ArithmeticError) and issubclass(error, ValueError)
