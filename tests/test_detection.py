import cmath
import math

import numpy as np
import pytest

from helpers import binary_probabilities
from qlidar import detection, fock_oracle
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, custom_state, make_state, vacuum


def cs(alpha2):
    return make_state(StateKind.CS, math.sqrt(alpha2))


class TestPhotonProbability:
    def test_coherent_vacuum_is_poisson(self):
        alpha2, phi = 2.0, 1.3
        out = propagate(cs(alpha2), vacuum(), MziConfig.lossless(phi))
        mean = alpha2 * math.sin(phi / 2) ** 2
        for n in range(8):
            expect = math.exp(-mean) * mean**n / math.factorial(n)
            assert detection.photon_probability(out, n) == pytest.approx(expect, abs=1e-13)

    def test_zero_phase_dark_port(self):
        out = propagate(make_state(StateKind.MPS3, 1.3), vacuum(), MziConfig.lossless(0.0))
        assert detection.photon_probability(out, 0) == pytest.approx(1.0, abs=1e-12)
        for n in (1, 2, 5):
            assert detection.photon_probability(out, n) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_distribution(self):
        sa = make_state(StateKind.MPS0, math.sqrt(2.0))
        cfg = MziConfig.lossless(1.0)
        out = propagate(sa, vacuum(), cfg)
        res = fock_oracle.simulate(sa, vacuum(), cfg, cutoff=40)
        for n in range(31):
            assert detection.photon_probability(out, n) == pytest.approx(res.probs[n], abs=1e-8)

    def test_negative_photon_number_rejected(self):
        out = propagate(cs(1.0), vacuum(), MziConfig.lossless(0.5))
        with pytest.raises(ValueError):
            detection.photon_probability(out, -1)

    def test_distribution_accounts_for_everything(self):
        out = propagate(make_state(StateKind.MPS1, math.sqrt(2.0)), cs(2.0), MziConfig(phi=1.1, loss_r=0.2))
        dist = detection.port_distribution(out)
        total = float(np.sum(dist.probs))
        assert total <= 1.0 + 1e-10
        assert total + dist.tail_bound >= 1.0 - 1e-10
        assert np.all(dist.probs >= 0.0)


class TestParity:
    def test_coherent_vacuum_closed_form(self):
        alpha2 = 2.0
        for phi in (0.0, 0.6, 2.2):
            out = propagate(cs(alpha2), vacuum(), MziConfig.lossless(phi))
            expect = math.exp(-2 * alpha2 * math.sin(phi / 2) ** 2)
            assert detection.parity_expectation(out) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("kind", [StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3])
    def test_port_swap_at_zero_phase(self, kind):
        zeta2 = 1.5
        out = propagate(make_state(kind, 1.1), cs(zeta2), MziConfig.lossless(0.0))
        assert detection.parity_expectation(out) == pytest.approx(math.exp(-2 * zeta2), abs=1e-12)
        assert detection.z_expectation(out) == pytest.approx(math.exp(-zeta2), abs=1e-12)

    def test_equals_signed_photon_sum(self):
        out = propagate(make_state(StateKind.MPS2, math.sqrt(2.0)), cs(1.0), MziConfig(phi=0.9, loss_r=0.3))
        dist = detection.port_distribution(out)
        signs = (-1.0) ** np.arange(dist.cutoff + 1)
        assert detection.parity_expectation(out) == pytest.approx(float(signs @ dist.probs), abs=1e-10)

    def test_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            kind = rng.choice([StateKind.CS, StateKind.ECSS, StateKind.MPS1])
            cfg = MziConfig(phi=float(rng.uniform(-math.pi, math.pi)), loss_r=float(rng.uniform(0, 0.9)))
            out = propagate(make_state(kind, math.sqrt(rng.uniform(0.2, 6))), vacuum(), cfg)
            assert -1.0 <= detection.parity_expectation(out) <= 1.0


class TestZ:
    def test_coherent_vacuum_closed_form(self):
        alpha2 = 2.0
        out = propagate(cs(alpha2), vacuum(), MziConfig.lossless(math.pi))
        assert detection.z_expectation(out) == pytest.approx(math.exp(-alpha2), abs=1e-12)

    def test_matches_oracle_with_loss(self):
        sa = make_state(StateKind.MPS1, math.sqrt(2.0))
        cfg = MziConfig(phi=2.0, loss_r=0.2)
        out = propagate(sa, vacuum(), cfg)
        res = fock_oracle.simulate(sa, vacuum(), cfg)
        assert detection.z_expectation(out) == pytest.approx(res.zero, abs=1e-8)

    def test_is_exactly_p0(self):
        out = propagate(make_state(StateKind.ECSS, 1.0), cs(0.5), MziConfig(phi=0.7, loss_r=0.1))
        assert detection.z_expectation(out) == detection.photon_probability(out, 0)


class TestBinaryProbabilities:
    def test_zero_phase(self):
        out = propagate(make_state(StateKind.ECSS, 1.2), vacuum(), MziConfig.lossless(0.0))
        p_plus, p_minus = binary_probabilities(out)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)

    def test_coherent_even_odd_split(self):
        alpha2, phi = 2.0, 1.1
        out = propagate(cs(alpha2), vacuum(), MziConfig.lossless(phi))
        p = alpha2 * math.sin(phi / 2) ** 2
        p_plus, p_minus = binary_probabilities(out)
        assert p_plus == pytest.approx(0.5 * (1 + math.exp(-2 * p)), abs=1e-12)
        assert p_minus == pytest.approx(0.5 * (1 - math.exp(-2 * p)), abs=1e-12)

    def test_matches_oracle_even_odd_sums(self):
        sa = make_state(StateKind.MPS0, math.sqrt(2.0))
        cfg = MziConfig.lossless(1.3)
        res = fock_oracle.simulate(sa, vacuum(), cfg)
        evens = float(np.sum(res.probs[0::2]))
        odds = float(np.sum(res.probs[1::2]))
        p_plus, p_minus = binary_probabilities(propagate(sa, vacuum(), cfg))
        assert p_plus == pytest.approx(evens, abs=1e-8)
        assert p_minus == pytest.approx(odds, abs=1e-8)

    def test_consistency_with_parity(self):
        out = propagate(make_state(StateKind.MPS3, 1.0), cs(1.0), MziConfig(phi=0.4, loss_r=0.5))
        p_plus, p_minus = binary_probabilities(out)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)
        assert p_plus - p_minus == pytest.approx(detection.parity_expectation(out), abs=1e-10)


class TestDerivative:
    @pytest.mark.parametrize("kind", [StateKind.CS, StateKind.ECSS, StateKind.MPS2])
    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_zero_at_zero_phase_with_vacuum(self, kind, scheme):
        # with a vacuum second input both signals are even in phi
        d = detection.expectation_derivative(make_state(kind, 1.2), vacuum(), MziConfig.lossless(0.0), scheme)
        assert d == pytest.approx(0.0, abs=1e-12)

    def _finite_difference(self, sa, sb, cfg, scheme, step=1e-5):
        up = detection.expectation(sa, sb, MziConfig(phi=cfg.phi + step, loss_r=cfg.loss_r), scheme)
        down = detection.expectation(sa, sb, MziConfig(phi=cfg.phi - step, loss_r=cfg.loss_r), scheme)
        return (up - down) / (2 * step)

    def test_coherent_parity_vs_finite_difference(self):
        sa = cs(2.0)
        cfg = MziConfig.lossless(0.8)
        d = detection.expectation_derivative(sa, vacuum(), cfg, Scheme.PARITY)
        fd = self._finite_difference(sa, vacuum(), cfg, Scheme.PARITY)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_mps_coherent_z_vs_finite_difference(self):
        sa = make_state(StateKind.MPS2, math.sqrt(2.0))
        sb = cs(2.0)
        cfg = MziConfig.lossless(0.7)
        d = detection.expectation_derivative(sa, sb, cfg, Scheme.Z)
        fd = self._finite_difference(sa, sb, cfg, Scheme.Z)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_random_points_vs_finite_difference(self):
        rng = np.random.default_rng(11)
        kinds = [StateKind.CS, StateKind.ECSS] + [StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
        for _ in range(12):
            kind = kinds[rng.integers(len(kinds))]
            sa = make_state(kind, math.sqrt(rng.uniform(0.5, 4.0)))
            sb = cs(rng.uniform(0.0, 3.0)) if rng.random() < 0.5 else vacuum()
            cfg = MziConfig(phi=float(rng.uniform(0.2, 2.9)), loss_r=float(rng.uniform(0, 0.6)))
            scheme = Scheme.PARITY if rng.random() < 0.5 else Scheme.Z
            d = detection.expectation_derivative(sa, sb, cfg, scheme)
            fd = self._finite_difference(sa, sb, cfg, scheme)
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestInvariances:
    def test_global_weight_phase(self):
        alpha = math.sqrt(2.0)
        base = make_state(StateKind.MPS1, alpha)
        phase = cmath.exp(0.37j)
        rotated = custom_state(base.weights * phase, base.amplitudes)
        cfg = MziConfig(phi=1.2, loss_r=0.3)
        out_a, out_b = propagate(base, vacuum(), cfg), propagate(rotated, vacuum(), cfg)
        assert detection.parity_expectation(out_a) == pytest.approx(detection.parity_expectation(out_b), abs=1e-12)
        assert detection.z_expectation(out_a) == pytest.approx(detection.z_expectation(out_b), abs=1e-12)
        for n in (0, 1, 4):
            assert detection.photon_probability(out_a, n) == pytest.approx(
                detection.photon_probability(out_b, n), abs=1e-12
            )

    def test_curves_match_pointwise_evaluation(self):
        sa = make_state(StateKind.MPS3, math.sqrt(2.0))
        sb = cs(3.0)
        phis = np.linspace(-2.5, 2.5, 9)
        for scheme in (Scheme.PARITY, Scheme.Z):
            curve = detection.expectation_curve(sa, sb, scheme, phis, loss_r=0.25)
            slopes = detection.expectation_derivative_curve(sa, sb, scheme, phis, loss_r=0.25)
            for i, phi in enumerate(phis):
                cfg = MziConfig(phi=float(phi), loss_r=0.25)
                assert curve[i] == pytest.approx(detection.expectation(sa, sb, cfg, scheme), abs=1e-12)
                assert slopes[i] == pytest.approx(
                    detection.expectation_derivative(sa, sb, cfg, scheme), abs=1e-12
                )

    def test_nonfinite_phase_rejected_like_config(self):
        with pytest.raises(ValueError) as from_config:
            MziConfig(phi=math.nan)
        sa = make_state(StateKind.CS, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for sweep in (detection.expectation_curve, detection.expectation_derivative_curve):
                with pytest.raises(ValueError) as from_curve:
                    sweep(sa, vacuum(), Scheme.PARITY, [0.0, bad])
                assert str(from_curve.value) == str(from_config.value)

    def test_scheme_parse(self):
        assert Scheme.parse("PARITY") is Scheme.PARITY
        with pytest.raises(ValueError):
            Scheme.parse("intensity")
