"""Property-based checks of invariants the fixed regression grids can miss."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from qlidar import detection, fock_oracle, metrology, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, density_operator, make_state, vacuum

KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]

kinds = st.sampled_from(KINDS)
# lower end keeps the j != 0 superpositions clear of their degenerate alpha -> 0 limit
alpha2s = st.floats(0.1, 2.0)
zeta2s = st.floats(0.0, 2.0)
phis = st.floats(-math.pi, math.pi)
losses = st.floats(0.0, 0.9)
schemes = st.sampled_from([Scheme.PARITY, Scheme.Z])

PROPERTY_SETTINGS = settings(deadline=None, max_examples=25)


def _inputs(kind, alpha2, zeta2):
    sb = vacuum() if zeta2 == 0.0 else make_state(StateKind.CS, math.sqrt(zeta2))
    return make_state(kind, math.sqrt(alpha2)), sb


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, phis, losses)
def test_thinning_matches_kraus_density(kind, alpha2, zeta2, phi, loss_r):
    # cutoff 24 keeps the encode tail below its limit up to alpha2 = zeta2 = 2
    sa, sb = _inputs(kind, alpha2, zeta2)
    cfg = MziConfig(phi=phi, loss_r=loss_r)
    thin = fock_oracle.simulate(sa, sb, cfg, cutoff=24)
    kraus = fock_oracle.simulate_density(sa, sb, cfg, cutoff=24)
    assert np.abs(thin.probs - kraus.probs).max() < 1e-12
    assert abs(thin.parity - kraus.parity) < 1e-12
    assert abs(thin.zero - kraus.zero) < 1e-12


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, phis, losses)
def test_port_distribution_matches_oracle(kind, alpha2, zeta2, phi, loss_r):
    sa, sb = _inputs(kind, alpha2, zeta2)
    cfg = MziConfig(phi=phi, loss_r=loss_r)
    res = fock_oracle.simulate(sa, sb, cfg)
    dist = detection.port_distribution(propagate(sa, sb, cfg), cutoff=len(res.probs) - 1)
    assert np.abs(dist.probs - res.probs).max() < 1e-8


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, phis, losses, st.integers(0, 30))
def test_tail_bound_covers_dropped_probability(kind, alpha2, zeta2, phi, loss_r, cutoff):
    sa, sb = _inputs(kind, alpha2, zeta2)
    out = propagate(sa, sb, MziConfig(phi=phi, loss_r=loss_r))
    dist = detection.port_distribution(out, cutoff=cutoff)
    assert float(np.sum(dist.probs)) + dist.tail_bound >= 1.0 - 1e-10
    # Cauchy-Schwarz bound built from the exact Poisson survival function.
    # For tiny intensities the two agree to rounding (relative |exponent| * eps).
    w, a, rest = detection._pair_data(out)
    tails = gammainc(cutoff + 1, np.abs(a) ** 2)
    exact = np.sum(np.abs(np.conj(w)[:, None] * w[None, :] * rest) * np.sqrt(tails[:, None] * tails[None, :]))
    assert dist.tail_bound >= exact * (1.0 - 1e-12)


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, losses, schemes, st.lists(phis, min_size=1, max_size=8))
def test_scalar_matches_curve(kind, alpha2, zeta2, loss_r, scheme, phase_list):
    sa, sb = _inputs(kind, alpha2, zeta2)
    # Both paths cancel pair terms of size |w_i w_j|, so rounding grows with the
    # squared weight mass (about 6600 for mps3 at alpha2 = 0.1, 1 for cs).
    tol = 1e-13 * (np.sum(np.abs(sa.weights)) * np.sum(np.abs(sb.weights))) ** 2
    curve = detection.expectation_curve(sa, sb, scheme, phase_list, loss_r)
    for phi, value in zip(phase_list, curve):
        assert abs(detection.expectation(sa, sb, MziConfig(phi=phi, loss_r=loss_r), scheme) - value) < tol


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, phis, losses, schemes)
def test_phase_sensitivity_is_one_point_curve(kind, alpha2, zeta2, phi, loss_r, scheme):
    sa, sb = _inputs(kind, alpha2, zeta2)
    point = metrology.phase_sensitivity(sa, sb, MziConfig(phi=phi, loss_r=loss_r), scheme)
    assert point == metrology.sensitivity_curve(sa, sb, scheme, [phi], loss_r)[0]


@PROPERTY_SETTINGS
@given(kinds, alpha2s, zeta2s, phis, losses)
def test_wigner_integral_equals_trace(kind, alpha2, zeta2, phi, loss_r):
    sa, sb = _inputs(kind, alpha2, zeta2)
    reduced = detection.reduced_port_a(propagate(sa, sb, MziConfig(phi=phi, loss_r=loss_r)))
    for op in (density_operator(sa), reduced):
        # Gaussian lobes of width 1/2 on a 0.1-0.2 step: the grid sum is exact to rounding
        assert abs(wigner.wigner_grid(op, resolution=101).integral - op.trace()) < 1e-9
