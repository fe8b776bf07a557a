import cmath
import math

import numpy as np
import pytest

from helpers import (
    basis_index,
    beam_splitter_unitary,
    bs_block,
    fold_phases,
    reference_beam_splitter,
    reference_binomial_kernel,
    reference_bs_block,
    reference_encode,
    reference_loss_channel,
    reference_phase,
    reference_simulate,
    reference_simulate_density,
    reference_square_encode,
    reference_thin,
    shell_layout,
    triangle_dimension,
)
from qlidar import cli, fock_oracle as fo
from qlidar.interferometer import MziConfig, mode_transform
from qlidar.states import StateKind, make_state, vacuum


class TestEncode:
    def test_vacuum_vacuum(self):
        vec = fo.encode(vacuum(), vacuum(), 4)
        assert vec.amplitudes[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(vec.amplitudes)) == pytest.approx(1.0)
        assert vec.tail_bound < 1e-15

    def test_coherent_is_poisson(self):
        vec = fo.encode(make_state(StateKind.CS, 1.0), vacuum(), 25)
        pn = np.abs(np.diagonal(vec.amplitudes)) ** 2  # |n, 0> is entry n of shell n
        ns = np.arange(26)
        expect = np.exp(-1.0) / np.array([float(math.factorial(int(n))) for n in ns])
        assert np.allclose(pn, expect, atol=1e-14)

    def test_mps2_photon_content(self):
        # four-component state with j=2 holds only 4n+2 photons
        vec = fo.encode(make_state(StateKind.MPS2, math.sqrt(2.0)), vacuum(), 30)
        pn = np.abs(np.diagonal(vec.amplitudes)) ** 2
        for n in range(31):
            if n % 4 != 2:
                assert pn[n] < 1e-12, n

    def test_cutoff_too_small(self):
        with pytest.raises(fo.CutoffTooSmall):
            fo.encode(make_state(StateKind.CS, math.sqrt(8.0)), vacuum(), 6)

    def test_vacuum_terms_have_no_nan(self):
        # a zero amplitude takes the same array path as any other: log 0 = -inf must give 0, not nan, for l >= 1
        assert fo.coherent_amplitudes([0.0, 1.0], 3)[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert fo.coherent_amplitudes(0.0, 0).tolist() == [1.0]

    def test_amplitudes_broadcast_over_alpha(self):
        alphas = np.array([[0.5 + 0.1j, -1.2], [0.0, 2j]])
        table = fo.coherent_amplitudes(alphas, 7)
        assert table.shape == (2, 2, 8)
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(table[idx], fo.coherent_amplitudes(alphas[idx], 7))


class TestBeamSplitter:
    @pytest.mark.parametrize("total", [1, 2, 7, 40, 90, 120])
    def test_blocks_orthogonal(self, total):
        # the complex block is R between diagonal i^n phases, so it is unitary exactly when R^T R = I
        block = fo._kravchuk_block(total)
        assert np.abs(block.T @ block - np.eye(total + 1)).max() < 1e-12

    def test_single_photon_split(self):
        u = beam_splitter_unitary(2)
        col = u[:, basis_index(1, 0, 2)]
        amp10 = col[basis_index(1, 0, 2)]
        amp01 = col[basis_index(0, 1, 2)]
        assert abs(amp10) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert abs(amp01) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert amp01 / amp10 == pytest.approx(1j)

    def test_block_diagonal_in_total_number(self):
        cutoff = 5
        u = beam_splitter_unitary(cutoff)
        dim = triangle_dimension(cutoff)
        for na in range(cutoff + 1):
            for nb in range(cutoff + 1 - na):
                col = u[:, basis_index(na, nb, cutoff)]
                for ma in range(cutoff + 1):
                    for mb in range(cutoff + 1 - ma):
                        if ma + mb != na + nb:
                            assert abs(col[basis_index(ma, mb, cutoff)]) < 1e-15

    def test_matches_amplitude_map_on_coherent_input(self):
        # convention lock against the interferometer transfer matrix: encode's i^n, R, then the dropped i^j
        alpha, zeta = 1.1 + 0.2j, 0.6 - 0.4j
        sa, sb = make_state(StateKind.CS, alpha), make_state(StateKind.CS, zeta)
        cutoff = fo.default_cutoff(sa, sb)
        shells = fo.encode(sa, sb, cutoff).amplitudes
        fo._apply_splitter(shells)
        out_a = (alpha + 1j * zeta) / math.sqrt(2)
        out_b = (1j * alpha + zeta) / math.sqrt(2)
        ref = np.outer(fo.coherent_amplitudes(out_a, cutoff), fo.coherent_amplitudes(out_b, cutoff))
        assert np.abs(shells * fold_phases(cutoff) - shell_layout(ref)).max() < 1e-10

    def test_full_pipeline_matches_transfer_matrix(self):
        sa, sb = make_state(StateKind.CS, 1.2), make_state(StateKind.CS, 0.7)
        cfg = MziConfig(phi=1.3, loss_r=0.3)
        res = fo.simulate(sa, sb, cfg)
        port_a = (mode_transform(cfg.phi, cfg.loss_r)[0] @ np.array([1.2, 0.7]))[0]
        mean = abs(port_a) ** 2
        ns = np.arange(len(res.probs))
        from scipy.special import gammaln

        expect = np.exp(-mean + ns * math.log(mean) - gammaln(ns + 1))
        assert np.abs(res.probs - expect).max() < 1e-10


class TestLossChannel:
    """The Kraus reference channel of tests/helpers.py, which cross-checks binomial thinning."""

    def _coherent_density(self, alpha, cutoff):
        psi = reference_encode(make_state(StateKind.CS, alpha), vacuum(), cutoff)
        return np.einsum("ab,cd->abcd", psi, np.conj(psi))

    def test_zero_loss_identity(self):
        rho = self._coherent_density(1.0, 16)
        assert np.array_equal(reference_loss_channel(rho, 0.0), rho)

    def test_coherent_stays_coherent(self):
        loss_r = 0.6
        t = math.sqrt(1 - loss_r**2)
        rho = self._coherent_density(1.0, 18)
        out = reference_loss_channel(rho, loss_r)
        ref = self._coherent_density(t * 1.0, 18)
        assert np.abs(out - ref).max() < 1e-10
        flat = out.reshape(19 * 19, 19 * 19)
        assert np.trace(flat @ flat).real == pytest.approx(1.0, abs=1e-10)

    def test_trace_preserved(self):
        rho = self._coherent_density(1.3, 16)
        out = reference_loss_channel(rho.transpose(1, 0, 3, 2), 0.4)  # the coherent state in arm b
        assert np.einsum("abab->", out).real == pytest.approx(np.einsum("abab->", rho).real, abs=1e-12)

    def test_mean_photon_scales(self):
        loss_r = 0.5
        rho = self._coherent_density(1.2, 18)
        out = reference_loss_channel(rho, loss_r)
        ns = np.arange(19)
        mean = float(np.einsum("abab,a->", out, ns).real)
        assert mean == pytest.approx((1 - loss_r**2) * 1.2**2, abs=1e-10)


class TestSimulate:
    def test_coherent_lossless_poisson(self):
        alpha = math.sqrt(2.0)
        phi = 1.1
        res = fo.simulate(make_state(StateKind.CS, alpha), vacuum(), MziConfig(phi=phi))
        mean = alpha**2 * math.sin(phi / 2) ** 2
        ns = np.arange(len(res.probs))
        from scipy.special import gammaln

        expect = np.exp(-mean + ns * math.log(mean) - gammaln(ns + 1))
        assert np.abs(res.probs - expect).max() < 1e-10

    def test_zero_phase_dark_port(self):
        res = fo.simulate(make_state(StateKind.MPS1, math.sqrt(2.0)), vacuum(), MziConfig(phi=0.0))
        assert res.zero == pytest.approx(1.0, abs=1e-12)
        assert res.parity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cutoff", [-1, 2.5])
    def test_cutoff_must_be_a_nonnegative_integer(self, cutoff):
        with pytest.raises(ValueError, match=f"^cutoff must be a nonnegative integer, got {cutoff}$"):
            fo.simulate(make_state(StateKind.CS, 1.0), vacuum(), MziConfig(phi=0.3), cutoff=cutoff)

    def test_probabilities_sum_to_one(self):
        res = fo.simulate(make_state(StateKind.MPS0, 1.0), make_state(StateKind.CS, 1.0), MziConfig(phi=0.8, loss_r=0.4))
        assert float(np.sum(res.probs)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("loss_r", [0.0, 0.3])
    def test_vector_and_density_paths_agree(self, loss_r):
        sa = make_state(StateKind.MPS2, 1.0)
        sb = make_state(StateKind.CS, 0.8)
        cfg = MziConfig(phi=0.9, loss_r=loss_r)
        rv = fo.simulate(sa, sb, cfg, cutoff=16)
        rd = reference_simulate_density(sa, sb, cfg, cutoff=16)
        assert np.abs(rv.probs - rd.probs).max() < 1e-12
        assert rv.parity == pytest.approx(rd.parity, abs=1e-12)
        assert rv.zero == pytest.approx(rd.zero, abs=1e-12)

    def test_density_stays_physical(self):
        sa = make_state(StateKind.MPS1, 1.0)
        cfg = MziConfig(phi=0.7, loss_r=0.5)
        cutoff = 14
        psi, _ = reference_square_encode(sa, vacuum(), cutoff)
        psi = reference_phase(reference_beam_splitter(psi), cfg.phi)
        rho = reference_loss_channel(np.einsum("ab,cd->abcd", psi, np.conj(psi)), cfg.loss_r)
        d = cutoff + 1
        flat = rho.reshape(d * d, d * d)
        assert np.abs(flat - flat.conj().T).max() < 1e-12
        assert np.trace(flat).real == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(flat)
        assert eigs.min() > -1e-10


class TestArrayFormsMatchLoops:
    """The array forms of the splitter, the encoding and thinning against the loop forms they replace."""

    @pytest.mark.parametrize("total", [0, 1, 2, 3, 7, 20, 41, 90, 120])
    def test_block_matches_entrywise_reference(self, total):
        assert np.abs(bs_block(total) - reference_bs_block(total)).max() <= 1e-15

    def test_block_stack_is_real_cached_and_zero_padded(self):
        stack = fo._block_stack(2)
        assert stack.dtype == np.float64 and stack is fo._block_stack(2)
        width = 3 * fo.GROUP
        assert stack.shape == (fo.GROUP, width, width)
        for k, total in enumerate(range(2 * fo.GROUP, width)):
            padded = np.zeros((width, width))
            padded[: total + 1, : total + 1] = fo._kravchuk_block(total)
            assert np.array_equal(stack[k], padded)
        assert np.abs(bs_block(9).real).max() > 0 and np.abs(bs_block(9).imag).max() > 0

    def test_lgamma_table_is_shared_and_read_only(self):
        table = fo._lgamma_table(9)
        assert table is fo._lgamma_table(9) and not table.flags.writeable
        assert table.tolist() == [math.lgamma(n + 1) for n in range(10)]

    @pytest.mark.parametrize("cutoff", [0, 1, fo.GROUP - 1, fo.GROUP, fo.GROUP + 1, 30, 101])
    def test_splitter_equals_unitary_blocks(self, cutoff):
        # cutoffs on both sides of a group edge; the complex blocks are the diagonal of beam_splitter_unitary,
        # whose dense form at cutoff 101 would take 441 MB
        rng = np.random.default_rng(cutoff)
        shape = (cutoff + 1, cutoff + 1)
        shells = np.tril(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        out = shells * fold_phases(cutoff)
        fo._apply_splitter(out)
        out *= fold_phases(cutoff)
        for total in range(cutoff + 1):
            expect = bs_block(total) @ shells[total, : total + 1]
            assert np.abs(out[total, : total + 1] - expect).max() <= 1e-13 * np.abs(shells).max()
        assert not np.any(np.triu(out, 1))

    @pytest.mark.parametrize("kind_a", list(StateKind))
    @pytest.mark.parametrize("kind_b", [StateKind.CS, StateKind.MPS2])
    def test_encode_matches_pairwise_reference(self, kind_a, kind_b):
        sa, sb = make_state(kind_a, 1.3 + 0.4j), make_state(kind_b, 0.7 - 0.2j)
        cutoff = fo.default_cutoff(sa, sb)
        expect = shell_layout(reference_encode(sa, sb, cutoff)) * fold_phases(cutoff)
        assert np.abs(fo.encode(sa, sb, cutoff).amplitudes - expect).max() <= 1e-15

    @pytest.mark.parametrize("cutoff", [0, 1, fo.GROUP - 1, fo.GROUP, fo.GROUP + 1, 30, 101])
    def test_encode_matches_square_layout(self, cutoff):
        # a total mean of 1e-11^(1/(cutoff+1)) photons leaves a Poisson tail below the limit at every cutoff
        amp = math.sqrt(0.5 * 1e-11 ** (1.0 / (cutoff + 1)))
        sa, sb = make_state(StateKind.CS, amp * cmath.exp(0.3j)), make_state(StateKind.CS, amp * cmath.exp(-1.1j))
        vec = fo.encode(sa, sb, cutoff)
        psi, tail = reference_square_encode(sa, sb, cutoff)
        assert np.abs(vec.amplitudes - shell_layout(psi) * fold_phases(cutoff)).max() <= 1e-15
        assert abs(vec.tail_bound - tail) <= 1e-14

    def test_thin_without_loss_returns_its_input(self):
        probs = np.array([0.5, 0.3, 0.2])
        assert fo._thin(probs, 1.0, 0.0) is probs

    @pytest.mark.parametrize("loss_r", [1e-8, 0.2, 0.5, 0.99])
    def test_thin_matches_exact_binomial_kernel(self, loss_r):
        loss_t = math.sqrt(1.0 - loss_r**2)
        kernel = reference_binomial_kernel(200, loss_t, loss_r)
        for cutoff in range(201):
            probs = np.full(cutoff + 1, 1.0 / (cutoff + 1))
            got = fo._thin(probs, loss_t, loss_r)
            assert np.abs(got - kernel[: cutoff + 1, : cutoff + 1] @ probs).max() <= 1e-15, cutoff
            # the log-factorial kernel it replaced rounds each entry to about 5e-14 at cutoff 200
            assert np.abs(got - reference_thin(probs, loss_t, loss_r)).max() <= 1e-14, cutoff
        # each column of the kernel, one entry at a time
        got = np.array([fo._thin(unit, loss_t, loss_r) for unit in np.eye(201)]).T
        assert np.abs(got - kernel).max() <= 1e-15


class TestSquareLayoutReference:
    """The shell-layout oracle against the square-layout pipeline it replaced, on the regression grids."""

    @pytest.mark.parametrize("quick", [False, True])
    def test_oracle_grid_matches(self, quick):
        for name, a2, z2, phi, r in cli.oracle_grid(quick):
            sa = cli._parse_state(name, energy=a2)
            sb = vacuum() if z2 == 0.0 else cli._parse_state("cs", energy=z2)
            cfg = MziConfig(phi=phi, loss_r=r)
            got, ref = fo.simulate(sa, sb, cfg), reference_simulate(sa, sb, cfg)
            point = (name, a2, z2, phi, r)
            assert len(got.probs) == len(ref.probs), point
            assert np.abs(got.probs - ref.probs).max() <= 1e-14, point
            assert abs(got.parity - ref.parity) <= 1e-14, point
            assert abs(got.zero - ref.zero) <= 1e-14, point
            assert abs(got.tail_bound - ref.tail_bound) <= 1e-14, point

    @pytest.mark.parametrize("cutoff", [0, 1, fo.GROUP - 1, fo.GROUP, fo.GROUP + 1, 30])
    def test_explicit_cutoffs_match(self, cutoff):
        amp = math.sqrt(0.5 * 1e-11 ** (1.0 / (cutoff + 1)))  # as in test_encode_matches_square_layout
        sa, sb = make_state(StateKind.ECSS, amp * cmath.exp(0.4j)), make_state(StateKind.CS, amp)
        cfg = MziConfig(phi=0.9, loss_r=0.3)
        got, ref = fo.simulate(sa, sb, cfg, cutoff=cutoff), reference_simulate(sa, sb, cfg, cutoff=cutoff)
        assert np.abs(got.probs - ref.probs).max() <= 1e-14
        assert abs(got.tail_bound - ref.tail_bound) <= 1e-14
