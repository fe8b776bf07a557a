"""The package's numerical guards: one residue check, one-phase inputs where required, and the limit classes."""

import numpy as np
import pytest

from qlidar import detection, fock_oracle, metrology, states
from qlidar.interferometer import _input_pairs, _output
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
