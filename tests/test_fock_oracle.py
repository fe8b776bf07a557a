import math

import numpy as np
import pytest

from helpers import basis_index, beam_splitter_unitary, triangle_dimension
from qlidar import fock_oracle as fo
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
        pn = np.abs(vec.amplitudes[:, 0]) ** 2
        ns = np.arange(26)
        expect = np.exp(-1.0) / np.array([float(math.factorial(int(n))) for n in ns])
        assert np.allclose(pn, expect, atol=1e-14)

    def test_mps2_photon_content(self):
        # four-component state with j=2 holds only 4n+2 photons
        vec = fo.encode(make_state(StateKind.MPS2, math.sqrt(2.0)), vacuum(), 30)
        pn = np.abs(vec.amplitudes[:, 0]) ** 2
        for n in range(31):
            if n % 4 != 2:
                assert pn[n] < 1e-12, n

    def test_cutoff_too_small(self):
        with pytest.raises(fo.CutoffTooSmall):
            fo.encode(make_state(StateKind.CS, math.sqrt(8.0)), vacuum(), 6)


class TestBeamSplitter:
    @pytest.mark.parametrize("total", [1, 2, 7, 40, 90, 120])
    def test_blocks_unitary(self, total):
        block = fo._bs_block(total)
        assert np.abs(block.conj().T @ block - np.eye(total + 1)).max() < 1e-12

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
        # convention lock against the interferometer transfer matrix
        alpha, zeta = 1.1 + 0.2j, 0.6 - 0.4j
        sa, sb = make_state(StateKind.CS, alpha), make_state(StateKind.CS, zeta)
        cutoff = fo.default_cutoff(sa, sb)
        psi = fo._apply_beam_splitter(fo.encode(sa, sb, cutoff).amplitudes, cutoff)
        out_a = (alpha + 1j * zeta) / math.sqrt(2)
        out_b = (1j * alpha + zeta) / math.sqrt(2)
        ref = np.outer(fo.coherent_amplitudes(out_a, cutoff), fo.coherent_amplitudes(out_b, cutoff))
        ns = np.arange(cutoff + 1)
        ref[ns[:, None] + ns[None, :] > cutoff] = 0.0
        assert np.abs(psi - ref).max() < 1e-10

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
    def _coherent_density(self, alpha, cutoff):
        vec = fo.encode(make_state(StateKind.CS, alpha), vacuum(), cutoff)
        return fo.FockDensity(cutoff=cutoff, matrix=np.einsum("ab,cd->abcd", vec.amplitudes, np.conj(vec.amplitudes)))

    def test_zero_loss_identity(self):
        rho = self._coherent_density(1.0, 16)
        out = fo.loss_channel(rho, "a", 0.0)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_coherent_stays_coherent(self):
        loss_r = 0.6
        t = math.sqrt(1 - loss_r**2)
        rho = self._coherent_density(1.0, 18)
        out = fo.loss_channel(rho, "a", loss_r)
        ref = self._coherent_density(t * 1.0, 18)
        assert np.abs(out.matrix - ref.matrix).max() < 1e-10
        flat = out.matrix.reshape(19 * 19, 19 * 19)
        assert np.trace(flat @ flat).real == pytest.approx(1.0, abs=1e-10)

    def test_trace_preserved(self):
        rho = self._coherent_density(1.3, 16)
        out = fo.loss_channel(rho, "b", 0.4)
        assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_mean_photon_scales(self):
        loss_r = 0.5
        rho = self._coherent_density(1.2, 18)
        out = fo.loss_channel(rho, "a", loss_r)
        ns = np.arange(19)
        mean = float(np.einsum("abab,a->", out.matrix, ns).real)
        assert mean == pytest.approx((1 - loss_r**2) * 1.2**2, abs=1e-10)

    def test_bad_arm_rejected(self):
        rho = self._coherent_density(0.5, 14)
        with pytest.raises(ValueError):
            fo.loss_channel(rho, "c", 0.1)


class TestSimulate:
    def test_coherent_lossless_poisson(self):
        alpha = math.sqrt(2.0)
        phi = 1.1
        res = fo.simulate(make_state(StateKind.CS, alpha), vacuum(), MziConfig.lossless(phi))
        mean = alpha**2 * math.sin(phi / 2) ** 2
        ns = np.arange(len(res.probs))
        from scipy.special import gammaln

        expect = np.exp(-mean + ns * math.log(mean) - gammaln(ns + 1))
        assert np.abs(res.probs - expect).max() < 1e-10

    def test_zero_phase_dark_port(self):
        res = fo.simulate(make_state(StateKind.MPS1, math.sqrt(2.0)), vacuum(), MziConfig.lossless(0.0))
        assert res.zero == pytest.approx(1.0, abs=1e-12)
        assert res.parity == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        res = fo.simulate(make_state(StateKind.MPS0, 1.0), make_state(StateKind.CS, 1.0), MziConfig(phi=0.8, loss_r=0.4))
        assert float(np.sum(res.probs)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("loss_r", [0.0, 0.3])
    def test_vector_and_density_paths_agree(self, loss_r):
        sa = make_state(StateKind.MPS2, 1.0)
        sb = make_state(StateKind.CS, 0.8)
        cfg = MziConfig(phi=0.9, loss_r=loss_r)
        rv = fo.simulate(sa, sb, cfg, cutoff=16)
        rd = fo.simulate_density(sa, sb, cfg, cutoff=16)
        assert np.abs(rv.probs - rd.probs).max() < 1e-12
        assert rv.parity == pytest.approx(rd.parity, abs=1e-12)
        assert rv.zero == pytest.approx(rd.zero, abs=1e-12)

    def test_density_stays_physical(self):
        sa = make_state(StateKind.MPS1, 1.0)
        cfg = MziConfig(phi=0.7, loss_r=0.5)
        cutoff = 14
        vec = fo.encode(sa, vacuum(), cutoff)
        psi = fo._apply_beam_splitter(vec.amplitudes, cutoff)
        psi = fo._apply_phase(psi, cutoff, cfg.phi)
        rho = fo.FockDensity(cutoff=cutoff, matrix=np.einsum("ab,cd->abcd", psi, np.conj(psi)))
        rho = fo.loss_channel(rho, "a", cfg.loss_r)
        rho = fo.loss_channel(rho, "b", cfg.loss_r)
        d = cutoff + 1
        flat = rho.matrix.reshape(d * d, d * d)
        assert np.abs(flat - flat.conj().T).max() < 1e-12
        assert np.trace(flat).real == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(flat)
        assert eigs.min() > -1e-10
