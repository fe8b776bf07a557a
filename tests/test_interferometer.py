import cmath
import math

import numpy as np
import pytest

from helpers import mode_mean_photon, output_gram_sum, reference_transfer_matrix
from qlidar import metrology, states
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, _input_pairs, _output, mode_transform, propagate
from qlidar.states import StateKind, make_state, vacuum

CONFIG_GRID = [
    MziConfig(phi=0.0),
    MziConfig(phi=0.7),
    MziConfig(phi=2.4, loss_r=0.2),
    MziConfig(phi=1.1, loss_r=0.5),
    MziConfig(phi=-2.0, loss_r=0.8),
]
PHASES = [0.7, -2.9, np.linspace(-math.pi, math.pi, 257)]
PHASE_IDS = ["0.7", "-2.9", "grid"]


class TestConfig:
    def test_loss_t_derived(self):
        cfg = MziConfig(phi=0.1, loss_r=0.6)
        assert cfg.loss_t == pytest.approx(0.8)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            MziConfig(phi=0.0, loss_r=1.5)
        with pytest.raises(ValueError):
            MziConfig(phi=math.inf)


class TestOneLossGuard:
    """Total loss leaves no fringe to measure: loss_r = 1 is rejected alike wherever it enters.

    The curve functions are checked against ``MziConfig`` in test_detection.py.
    """

    @pytest.mark.parametrize("entry", ["config", "loss_sweep"])
    def test_total_loss_rejected_alike(self, entry, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("a grid point was computed before the grid was checked")

        monkeypatch.setattr(metrology, "sensitivity_curve", computed)
        sa = make_state(StateKind.CS, 1.0)
        calls = {
            "config": lambda: MziConfig(phi=0.0, loss_r=1.0),
            "loss_sweep": lambda: metrology.loss_sweep(sa, vacuum(), 0.1, Scheme.PARITY, [0.0, 0.5, 1.0]),
        }
        with pytest.raises(ValueError) as info:
            calls[entry]()
        assert str(info.value) == "loss_r must lie in [0, 1), got 1.0"

    def test_largest_loss_below_one_accepted(self):
        r = math.nextafter(1.0, 0.0)
        assert 0.0 < MziConfig(phi=0.0, loss_r=r).loss_t < 1e-7


class TestModeTransform:
    def test_zero_phase_swaps_ports(self):
        m = mode_transform(0.0)[0]
        v = m @ np.array([2.0, 3.0])
        assert np.allclose(v, [3j, 2j, 0.0, 0.0], atol=1e-15)

    def test_pi_phase_keeps_port_a(self):
        m = mode_transform(math.pi)[0]
        v = m @ np.array([1.7, 0.0])
        assert abs(v[0]) == pytest.approx(1.7, abs=1e-12)
        assert abs(v[1]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cfg", CONFIG_GRID)
    def test_isometry(self, cfg):
        m = mode_transform(cfg.phi, cfg.loss_r)[0]
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.8])
    def test_environment_share(self, phi):
        cfg = MziConfig(phi=phi, loss_r=0.4)
        v = mode_transform(cfg.phi, cfg.loss_r)[0] @ np.array([1.3, 0.0])
        env = abs(v[2]) ** 2 + abs(v[3]) ** 2
        assert env == pytest.approx(0.4**2 * 1.3**2, abs=1e-12)

    def test_phase_rides_on_env_a(self):
        # loss acts after the phase shifter, so env a carries e^{i phi}
        cfg = MziConfig(phi=1.9, loss_r=0.3)
        m = mode_transform(cfg.phi, cfg.loss_r)[0]
        rbar = 1j * 0.3 / math.sqrt(2.0)
        assert m[2, 0] == pytest.approx(rbar * cmath.exp(1.9j), abs=1e-14)
        assert m[3, 0] == pytest.approx(1j * rbar, abs=1e-14)

    @pytest.mark.parametrize("phi", PHASES, ids=PHASE_IDS)
    def test_zero_loss_environment_rows_are_exact_zeros(self, phi):
        # +0.0 in every part (no -0.0), in the matrix and its derivative; rows 0-1 keep every bit
        for got, ref in zip(mode_transform(phi), reference_transfer_matrix(phi, 0.0)):
            assert got[2:].tobytes() == np.zeros_like(got[2:]).tobytes()
            assert got[:2].tobytes() == ref[:2].tobytes()

    @pytest.mark.parametrize("loss_r", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("phi", PHASES, ids=PHASE_IDS)
    def test_lossy_entries_are_the_reference_bit_for_bit(self, phi, loss_r):
        for got, ref in zip(mode_transform(phi, loss_r), reference_transfer_matrix(phi, loss_r)):
            assert got.tobytes() == ref.tobytes()


class TestPropagate:
    @pytest.mark.parametrize("loss_r", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("phi", PHASES, ids=PHASE_IDS)
    def test_port_amplitudes_are_the_reference_bit_for_bit(self, phi, loss_r):
        # port a and port b from the entry-by-entry matrix, one contiguous (4, 2) block per phase as _output takes it
        sa, sb = make_state(StateKind.MPS3, 1.3), make_state(StateKind.ECSS, 0.8)
        w, amps_in = _input_pairs(sa, sb)
        ref = reference_transfer_matrix(phi, loss_r)[0]
        if ref.ndim == 3:
            ref = np.ascontiguousarray(ref.transpose(2, 0, 1))
        want = (amps_in @ ref.swapaxes(-1, -2))[..., :2]
        got = _output(w, amps_in, phi, loss_r) if ref.ndim == 3 else propagate(sa, sb, MziConfig(phi=phi, loss_r=loss_r))
        assert got.amplitudes[..., :2].tobytes() == want.tobytes()

    def test_pair_exponents_without_phase_raise(self):
        # at S = |a|^2 + |b|^2 = 2^52 a pair exponent's imaginary part rounds by a radian; one ulp below it passes
        propagate(make_state(StateKind.CS, math.nextafter(2.0**26, 0.0)), vacuum(), MziConfig(phi=0.1))
        with pytest.raises(ArithmeticError, match=r"lose their phase: S = max_k \|a_k\|\^2 \+ \|b_k\|\^2 = 4\.504e\+15 reaches"):
            propagate(make_state(StateKind.CS, 2.0**26), vacuum(), MziConfig(phi=0.1))

    def test_cs_vacuum_term(self):
        alpha = 1.2
        cfg = MziConfig(phi=0.9, loss_r=0.3)
        out = propagate(make_state(StateKind.CS, alpha), vacuum(), cfg)
        assert len(out.weights) == 1
        t, r, phi = cfg.loss_t, cfg.loss_r, cfg.phi
        theta = 1j * t * cmath.exp(0.5j * phi) * math.sin(phi / 2)
        sigma = 1j * t * cmath.exp(0.5j * phi) * math.cos(phi / 2)
        rbar = 1j * r / math.sqrt(2)
        expected = (alpha * theta, alpha * sigma, rbar * alpha * cmath.exp(1j * phi), 1j * rbar * alpha)
        assert np.allclose(out.amplitudes[0], expected, atol=1e-14)

    def test_mps0_vacuum_scaling(self):
        cfg = MziConfig(phi=1.3)
        out = propagate(make_state(StateKind.MPS0, 1.0), vacuum(), cfg)
        amps = out.amplitudes
        for m in range(4):
            assert np.allclose(amps[m], amps[0] * 1j**m, atol=1e-14)

    def test_mps_coherent_shift(self):
        alpha, zeta = 1.1, 0.8
        cfg = MziConfig(phi=0.7)
        out_pair = propagate(make_state(StateKind.MPS1, alpha), make_state(StateKind.CS, zeta), cfg)
        out_vac = propagate(make_state(StateKind.MPS1, alpha), vacuum(), cfg)
        sigma = 1j * cmath.exp(0.5j * cfg.phi) * math.cos(cfg.phi / 2)
        shift = zeta * sigma
        assert out_pair.amplitudes[0, 0] == pytest.approx(out_vac.amplitudes[0, 0] + shift, abs=1e-14)

    def test_term_count_and_weights(self):
        sa = make_state(StateKind.MPS2, 0.9)
        sb = make_state(StateKind.ECSS, 0.5)
        out = propagate(sa, sb, MziConfig(phi=0.4))
        assert len(out.weights) == 8
        assert out.weights[0] == pytest.approx(sa.weights[0] * sb.weights[0])

    def test_input_normalized_by_construction(self):
        # a term list of any scale enters as its normalized state
        scaled = propagate(states.SuperposedState([2.0], [1.0]), vacuum(), MziConfig(phi=0.1))
        unit = propagate(make_state(StateKind.CS, 1.0), vacuum(), MziConfig(phi=0.1))
        assert scaled.weights.tobytes() == unit.weights.tobytes()
        assert scaled.amplitudes.tobytes() == unit.amplitudes.tobytes()


class TestBookkeeping:
    @pytest.mark.parametrize("cfg", CONFIG_GRID)
    @pytest.mark.parametrize("kind", [StateKind.CS, StateKind.ECSS, StateKind.MPS1])
    def test_norm_preserved(self, cfg, kind):
        out = propagate(make_state(kind, math.sqrt(2.0)), make_state(StateKind.CS, 1.0), cfg)
        assert output_gram_sum(out) == pytest.approx(1.0, abs=1e-10)

    def test_energy_conserved_lossless(self):
        sa = make_state(StateKind.MPS3, math.sqrt(3.0))
        sb = make_state(StateKind.CS, 1.2)
        out = propagate(sa, sb, MziConfig(phi=1.8))
        total_in = states.mean_photon_number(sa) + states.mean_photon_number(sb)
        ports = mode_mean_photon(out, 0) + mode_mean_photon(out, 1)
        assert ports == pytest.approx(total_in, abs=1e-10)
        assert mode_mean_photon(out, 2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("loss_r", [0.2, 0.5, 0.8])
    def test_energy_bookkeeping_lossy(self, loss_r):
        sa = make_state(StateKind.MPS1, math.sqrt(2.0))
        sb = make_state(StateKind.CS, 1.1)
        out = propagate(sa, sb, MziConfig(phi=0.9, loss_r=loss_r))
        total_in = states.mean_photon_number(sa) + states.mean_photon_number(sb)
        total_out = sum(mode_mean_photon(out, m) for m in range(4))
        assert total_out == pytest.approx(total_in, abs=1e-10)
