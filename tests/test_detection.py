import cmath
import math

import numpy as np
import pytest

from helpers import (
    binary_probabilities,
    reference_curve,
    reference_expectation,
    reference_pair_data,
    reference_photon_probabilities,
    reference_slope_bound,
)
from qlidar import detection, fock_oracle, metrology
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, _transfer_matrix, mode_transform, propagate
from qlidar.states import StateKind, SuperposedState, make_state, vacuum


def cs(alpha2):
    return make_state(StateKind.CS, math.sqrt(alpha2))


class TestPhotonProbability:
    def test_coherent_vacuum_is_poisson(self):
        alpha2, phi = 2.0, 1.3
        out = propagate(cs(alpha2), vacuum(), MziConfig(phi=phi))
        mean = alpha2 * math.sin(phi / 2) ** 2
        for n in range(8):
            expect = math.exp(-mean) * mean**n / math.factorial(n)
            assert detection.port_distribution(out, cutoff=n).probs[n] == pytest.approx(expect, abs=1e-13)

    def test_zero_phase_dark_port(self):
        out = propagate(make_state(StateKind.MPS3, 1.3), vacuum(), MziConfig(phi=0.0))
        assert detection.port_distribution(out, cutoff=0).probs[0] == pytest.approx(1.0, abs=1e-12)
        for n in (1, 2, 5):
            assert detection.port_distribution(out, cutoff=n).probs[n] == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_distribution(self):
        sa = make_state(StateKind.MPS0, math.sqrt(2.0))
        cfg = MziConfig(phi=1.0)
        out = propagate(sa, vacuum(), cfg)
        res = fock_oracle.simulate(sa, vacuum(), cfg, cutoff=40)
        for n in range(31):
            assert detection.port_distribution(out, cutoff=n).probs[n] == pytest.approx(res.probs[n], abs=1e-8)

    @pytest.mark.parametrize("cutoff", [-1, 2.5])
    def test_cutoff_must_be_a_nonnegative_integer(self, cutoff):
        out = propagate(cs(1.0), vacuum(), MziConfig(phi=0.5))
        with pytest.raises(ValueError, match=f"^cutoff must be a nonnegative integer, got {cutoff}$"):
            detection.port_distribution(out, cutoff=cutoff)

    def test_distribution_accounts_for_everything(self):
        out = propagate(make_state(StateKind.MPS1, math.sqrt(2.0)), cs(2.0), MziConfig(phi=1.1, loss_r=0.2))
        dist = detection.port_distribution(out)
        total = float(np.sum(dist.probs))
        assert total <= 1.0 + 1e-10
        assert total + dist.tail_bound >= 1.0 - 1e-10
        assert np.all(dist.probs >= 0.0)


class TestOnePassDistribution:
    """P(0..cutoff) in one array pass against the per-n loop it replaces."""

    def _outputs(self, count, seed):
        # |amplitude| >= 0.5 keeps the four-component weights, which grow like |alpha|^-3, well conditioned
        rng = np.random.default_rng(seed)
        kinds = list(StateKind)
        for _ in range(count):
            sa, sb = (
                make_state(kinds[rng.integers(len(kinds))], cmath.rect(rng.uniform(0.5, hi), rng.uniform(-3, 3)))
                for hi in (3.0, 1.5)
            )
            yield propagate(sa, sb, MziConfig(phi=rng.uniform(-3, 3), loss_r=rng.uniform(0, 0.9)))

    def test_matches_per_n_reference(self):
        for out in self._outputs(60, seed=3):
            w, a, rest = detection._pair_data(out)
            cutoff = detection.default_cutoff(out)
            got = detection._photon_probabilities(w, a, rest, cutoff)
            ref = reference_photon_probabilities(w, a, rest, cutoff)
            assert np.abs(got[1:] - ref[1:]).max() <= 1e-14 * float(np.sum(np.abs(w))) ** 2

    def test_vacuum_term_is_bit_equal_to_reference(self):
        for out in self._outputs(60, seed=4):
            w, a, rest = detection._pair_data(out)
            ref = reference_photon_probabilities(w, a, rest, 0)[0]
            assert detection._photon_probabilities(w, a, rest, 12)[0].tobytes() == ref.tobytes()
            assert detection.z_expectation(out) == ref

    # two terms, a = (0, 1) and real weights: only the pair (1, 1) reaches n >= 1, and P(0) sums both diagonal terms
    W2, A2 = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([0.0, 1.0], dtype=complex)

    def test_residue_names_first_offending_n(self):
        # imaginary parts cancel in P(0) = (rest_00 + rest_11 / e) / 2 but not in P(n >= 1)
        s = 1e-6
        rest = np.array([[1.0 - 1j * s / math.e, 0.0], [0.0, 1.0 + 1j * s]])
        with pytest.raises(ArithmeticError, match=r"^P\(1\) has imaginary residue"):
            detection._photon_probabilities(self.W2, self.A2, rest, 5)

    def test_negativity_names_first_offending_n(self):
        rest = np.array([[2.0, 0.0], [0.0, -1.0]], dtype=complex)
        with pytest.raises(detection.NegativeProbability, match=r"^P\(1\) = -1\.839e-01"):
            detection._photon_probabilities(self.W2, self.A2, rest, 5)
        assert detection._photon_probabilities(self.W2, self.A2, rest, 0)[0] == pytest.approx(1.0 - 0.5 / math.e)

    @pytest.mark.parametrize(
        "rest,error",
        [
            (np.array([[-1.0, 0.0], [0.0, -1.0]], dtype=complex), detection.NegativeProbability),
            (np.array([[1.0 + 1e-6j, 0.0], [0.0, 1.0]]), ArithmeticError),
        ],
    )
    def test_vacuum_only_check_matches_full_pass(self, rest, error):
        # z_expectation checks P(0) alone in scalar Python; a full pass stops at the same n = 0
        with pytest.raises(error) as full:
            detection._photon_probabilities(self.W2, self.A2, rest, 5)
        with pytest.raises(error) as alone:
            detection._photon_probabilities(self.W2, self.A2, rest, 0)
        assert type(alone.value) is type(full.value) and str(alone.value) == str(full.value)
        assert str(full.value).startswith("P(0) ")


class TestParity:
    def test_coherent_vacuum_closed_form(self):
        alpha2 = 2.0
        for phi in (0.0, 0.6, 2.2):
            out = propagate(cs(alpha2), vacuum(), MziConfig(phi=phi))
            expect = math.exp(-2 * alpha2 * math.sin(phi / 2) ** 2)
            assert detection.parity_expectation(out) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("kind", [StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3])
    def test_port_swap_at_zero_phase(self, kind):
        zeta2 = 1.5
        out = propagate(make_state(kind, 1.1), cs(zeta2), MziConfig(phi=0.0))
        assert detection.parity_expectation(out) == pytest.approx(math.exp(-2 * zeta2), abs=1e-12)
        assert detection.z_expectation(out) == pytest.approx(math.exp(-zeta2), abs=1e-12)

    def test_equals_signed_photon_sum(self):
        out = propagate(make_state(StateKind.MPS2, math.sqrt(2.0)), cs(1.0), MziConfig(phi=0.9, loss_r=0.3))
        dist = detection.port_distribution(out)
        signs = (-1.0) ** np.arange(len(dist.probs))
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
        out = propagate(cs(alpha2), vacuum(), MziConfig(phi=math.pi))
        assert detection.z_expectation(out) == pytest.approx(math.exp(-alpha2), abs=1e-12)

    def test_matches_oracle_with_loss(self):
        sa = make_state(StateKind.MPS1, math.sqrt(2.0))
        cfg = MziConfig(phi=2.0, loss_r=0.2)
        out = propagate(sa, vacuum(), cfg)
        res = fock_oracle.simulate(sa, vacuum(), cfg)
        assert detection.z_expectation(out) == pytest.approx(res.zero, abs=1e-8)

    def test_is_exactly_p0(self):
        out = propagate(make_state(StateKind.ECSS, 1.0), cs(0.5), MziConfig(phi=0.7, loss_r=0.1))
        assert detection.z_expectation(out) == detection.port_distribution(out, cutoff=0).probs[0]


class TestBinaryProbabilities:
    def test_zero_phase(self):
        out = propagate(make_state(StateKind.ECSS, 1.2), vacuum(), MziConfig(phi=0.0))
        p_plus, p_minus = binary_probabilities(out)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)

    def test_coherent_even_odd_split(self):
        alpha2, phi = 2.0, 1.1
        out = propagate(cs(alpha2), vacuum(), MziConfig(phi=phi))
        p = alpha2 * math.sin(phi / 2) ** 2
        p_plus, p_minus = binary_probabilities(out)
        assert p_plus == pytest.approx(0.5 * (1 + math.exp(-2 * p)), abs=1e-12)
        assert p_minus == pytest.approx(0.5 * (1 - math.exp(-2 * p)), abs=1e-12)

    def test_matches_oracle_even_odd_sums(self):
        sa = make_state(StateKind.MPS0, math.sqrt(2.0))
        cfg = MziConfig(phi=1.3)
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
        d = detection.expectation_derivative(make_state(kind, 1.2), vacuum(), MziConfig(phi=0.0), scheme)
        assert d == pytest.approx(0.0, abs=1e-12)

    def _finite_difference(self, sa, sb, cfg, scheme, step=1e-5):
        up = detection.expectation(sa, sb, MziConfig(phi=cfg.phi + step, loss_r=cfg.loss_r), scheme)
        down = detection.expectation(sa, sb, MziConfig(phi=cfg.phi - step, loss_r=cfg.loss_r), scheme)
        return (up - down) / (2 * step)

    def test_coherent_parity_vs_finite_difference(self):
        sa = cs(2.0)
        cfg = MziConfig(phi=0.8)
        d = detection.expectation_derivative(sa, vacuum(), cfg, Scheme.PARITY)
        fd = self._finite_difference(sa, vacuum(), cfg, Scheme.PARITY)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_mps_coherent_z_vs_finite_difference(self):
        sa = make_state(StateKind.MPS2, math.sqrt(2.0))
        sb = cs(2.0)
        cfg = MziConfig(phi=0.7)
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
        rotated = SuperposedState(base.weights * phase, base.amplitudes)
        cfg = MziConfig(phi=1.2, loss_r=0.3)
        out_a, out_b = propagate(base, vacuum(), cfg), propagate(rotated, vacuum(), cfg)
        assert detection.parity_expectation(out_a) == pytest.approx(detection.parity_expectation(out_b), abs=1e-12)
        assert detection.z_expectation(out_a) == pytest.approx(detection.z_expectation(out_b), abs=1e-12)
        for n in (0, 1, 4):
            assert detection.port_distribution(out_a, cutoff=n).probs[n] == pytest.approx(
                detection.port_distribution(out_b, cutoff=n).probs[n], abs=1e-12
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

    @pytest.mark.parametrize("loss_r", [1.0, 1.5, -0.3, math.nan])
    @pytest.mark.parametrize(
        "sweep",
        [
            detection.expectation_curve,
            detection.expectation_derivative_curve,
            metrology.sensitivity_curve,
            metrology.sample_curve,
        ],
        ids=lambda f: f.__name__,
    )
    def test_bad_loss_rejected_like_config(self, sweep, loss_r):
        with pytest.raises(ValueError) as from_config:
            MziConfig(phi=0.0, loss_r=loss_r)
        with pytest.raises(ValueError) as from_curve:
            sweep(make_state(StateKind.CS, 1.0), vacuum(), Scheme.PARITY, [0.0, 1.0], loss_r)
        assert str(from_curve.value) == str(from_config.value)

    @pytest.mark.parametrize(
        "phis,message",
        [
            (0.5, "phases of a curve must be a 1-D array"),
            (np.zeros((2, 2)), r"phases must be a float or a 1-D array, got shape \(2, 2\)"),
        ],
        ids=["float", "2-D"],
    )
    @pytest.mark.parametrize(
        "sweep",
        [
            detection.expectation_curve,
            detection.expectation_derivative_curve,
            metrology.sensitivity_curve,
            metrology.sample_curve,
        ],
        ids=lambda f: f.__name__,
    )
    def test_curve_phases_are_one_axis(self, sweep, phis, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(make_state(StateKind.CS, 1.0), vacuum(), Scheme.PARITY, phis)

    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_evaluator_phases_are_a_float_or_one_axis(self, scheme):
        evaluate = detection.expectation_evaluator(make_state(StateKind.MPS1, 1.0), vacuum(), scheme)
        with pytest.raises(ValueError, match=r"^phases must be a float or a 1-D array, got shape \(1, 2\)$"):
            evaluate(np.array([[0.1, 0.2]]))

    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_evaluator_of_no_phases_is_empty(self, scheme):
        evaluate = detection.expectation_evaluator(make_state(StateKind.MPS1, 1.0), vacuum(), scheme)
        assert evaluate(np.array([])).tolist() == []

    def test_scheme_parse(self):
        assert Scheme.parse("PARITY") is Scheme.PARITY
        with pytest.raises(ValueError):
            Scheme.parse("intensity")


SIX = (StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3)


class TestTracedModes:
    """Skipping the vacuum loss environments at zero loss changes no bit of any value.

    Slopes come from port a's exponent alone, so they lie within a rounding
    bound of the four-mode reference rather than on its bits.
    """

    def test_environments_traced_whenever_loss_is_nonzero(self):
        assert detection._traced_modes(0.0) == detection._traced_modes(-0.0) == (1,)
        assert detection._traced_modes(1e-300) == detection._traced_modes(0.3) == (1, 2, 3)

    @staticmethod
    def _check_closed_period(sa, sb, scheme, phis, loss_r, values):
        """The default curve on a closed period: the clipped reference where no m < P - 1 fits, else within the bound of m."""
        got = detection.expectation_curve(sa, sb, scheme, phis, loss_r)
        assert scheme is Scheme.PARITY or np.min(values) >= detection.NEGATIVE_PROBABILITY_TOL  # no Z takes the scalar's
        values = values.clip(-1.0 if scheme is Scheme.PARITY else 0.0, 1.0)
        w, amps_in = detection._input_pairs(sa, sb)
        n_phi = len(phis) - 1
        m = detection._spectral_count(w, amps_in, scheme, loss_r, n_phi)
        if m == n_phi:
            assert got.tobytes() == values.tobytes()
            return
        weight = float(np.sum(np.abs(w))) ** 2
        bound = math.exp(min(float(detection._interpolation_bounds(w, amps_in, scheme, loss_r, np.array([m]))[0]), 700.0))
        assert bound <= 2.0**-52 * weight
        assert np.max(np.abs(got - values)) <= bound + 1e-13 * weight
        assert got[-1] == got[0]

    @pytest.mark.parametrize("loss_r", [0.0, -0.0, 0.3, math.nextafter(1.0, 0.0)], ids=repr)
    @pytest.mark.parametrize("kind", SIX, ids=lambda k: k.value)
    def test_equal_to_four_mode_reference(self, kind, loss_r):
        phis = np.linspace(-math.pi, math.pi, 33)
        for alpha2 in (0.5, 2.0, 51.0):
            sa = make_state(kind, math.sqrt(alpha2))
            for sb in (vacuum(), cs(2.0)):
                for scheme in (Scheme.PARITY, Scheme.Z):
                    for phi in phis[::8]:
                        config = MziConfig(phi=float(phi), loss_r=loss_r)
                        got = detection.expectation(sa, sb, config, scheme)
                        assert got == reference_expectation(sa, sb, config, scheme)
                    values, slopes = reference_curve(sa, sb, scheme, phis, loss_r)
                    assert np.array_equal(detection.expectation_curve(sa, sb, scheme, phis, loss_r, direct=True), values)
                    got_slopes = detection.expectation_derivative_curve(sa, sb, scheme, phis, loss_r)
                    assert np.max(np.abs(got_slopes - slopes)) <= reference_slope_bound(sa, sb)
                    self._check_closed_period(sa, sb, scheme, phis, loss_r, values)
                out = propagate(sa, sb, MziConfig(phi=1.7, loss_r=loss_r))
                w, a, rest = reference_pair_data(out)
                dist = detection.port_distribution(out)
                assert np.array_equal(dist.probs, detection._photon_probabilities(w, a, rest, len(dist.probs) - 1))
                op = detection.reduced_port_a(out)
                assert np.array_equal(op.coeffs, np.conj(w)[:, None] * w[None, :] * rest)
                assert np.array_equal(op.amplitudes, a)

    @pytest.mark.parametrize(
        "kind, alpha2, zeta2",
        [(StateKind.CS, 51.0, 2.0), (StateKind.CS, 51.0, 0.0), (StateKind.CS, 2.0, 2.0), (StateKind.MPS3, 8.0, 2.0)],
    )
    def test_lossy_pair_data_is_the_reference_bit_for_bit(self, kind, alpha2, zeta2):
        # K = 1 for cs and 4 for mps3.  numpy's complex product of two size-1 arrays differs in place and out of
        # place in the last bit, so the traced overlaps must multiply in place, as the reference does; out of
        # place, cs at alpha^2 = 51 or 2 moves reduced_port_a's coefficient at some phases
        sa, sb = make_state(kind, math.sqrt(alpha2)), cs(zeta2) if zeta2 else vacuum()
        for phi in np.linspace(-math.pi, math.pi, 61).tolist():
            out = propagate(sa, sb, MziConfig(phi=phi, loss_r=0.5))
            w, a, rest = reference_pair_data(out)
            assert [x.tobytes() for x in detection._pair_data(out)] == [w.tobytes(), a.tobytes(), rest.tobytes()]
            op = detection.reduced_port_a(out)
            assert op.coeffs.tobytes() == (np.conj(w)[:, None] * w[None, :] * rest).tobytes()
            assert op.amplitudes.tobytes() == a.tobytes()



class TestGridTransferMatrix:
    """Curve chunks read their transfer matrix from a memo of GRID_MATRICES read-only entries, bit for bit."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        detection._grid_transfer_matrix.cache_clear()

    @pytest.mark.parametrize("loss_r", [0.0, 0.3])
    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_cold_and_warm_sweeps_are_bit_equal(self, scheme, loss_r):
        pairs = detection._input_pairs(make_state(StateKind.MPS3, math.sqrt(2.0)), cs(2.0))
        grid = np.linspace(-math.pi, math.pi, 2 * detection.CURVE_CHUNK + 5)  # three chunks
        for want_derivative in (False, True):
            detection._grid_transfer_matrix.cache_clear()
            cold = detection._sweep(*pairs, scheme, grid, loss_r, want_derivative)
            warm = detection._sweep(*pairs, scheme, grid, loss_r, want_derivative)
            info = detection._grid_transfer_matrix.cache_info()
            assert (info.hits, info.misses) == (3, 3)
            assert [x.tobytes() for x in cold if x is not None] == [x.tobytes() for x in warm if x is not None]
            assert (cold[1] is None) == (warm[1] is None) == (not want_derivative)

    @pytest.mark.parametrize("loss_r", [0.0, 0.3])
    def test_cached_matrices_are_fresh_ones_read_only(self, loss_r):
        phis = np.linspace(-1.0, 2.0, 9)
        for want_derivative in (False, True):
            got = detection._grid_transfer_matrix(phis.tobytes(), loss_r, want_derivative)
            fresh = _transfer_matrix(phis, loss_r, want_derivative)
            assert (got[1] is None) == (fresh[1] is None) == (not want_derivative)
            for cached, built in zip(got, fresh):
                if built is not None:
                    assert cached.tobytes() == built.tobytes() and cached.shape == built.shape
                    assert not cached.flags.writeable
                    with pytest.raises(ValueError):
                        cached[0, 0, 0] = 1.0

    def test_memo_never_exceeds_its_size(self):
        sa = cs(2.0)
        for k in range(3 * detection.GRID_MATRICES):
            detection.expectation_derivative_curve(sa, vacuum(), Scheme.PARITY, np.linspace(0.0, 1.0 + k, 5))
            assert detection._grid_transfer_matrix.cache_info().currsize <= detection.GRID_MATRICES
        assert detection._grid_transfer_matrix.cache_info().currsize == detection.GRID_MATRICES

    def test_evaluator_and_mode_transform_add_no_entries(self):
        sa, phis = make_state(StateKind.MPS1, 1.2), np.linspace(-1.0, 2.0, 9)
        for scheme in (Scheme.PARITY, Scheme.Z):
            evaluate = detection.expectation_evaluator(sa, cs(2.0), scheme, 0.2)
            evaluate(0.7), evaluate(phis)
            detection.expectation(sa, vacuum(), MziConfig(phi=0.7), scheme)
        mode_transform(phis, 0.2), mode_transform(0.7)
        assert detection._grid_transfer_matrix.cache_info().currsize == 0
