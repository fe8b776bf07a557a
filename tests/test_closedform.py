"""Closed-form transcriptions against the pair-sum engine.

The scalar forms and the engine are independent evaluation routes; they must
agree to 1e-10 across the regression grid of state kinds, energies, phases
and loss settings.
"""

import math

import numpy as np
import pytest

from helpers import binary_probabilities
from qlidar import closedform as cf
from qlidar import detection, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, make_state, vacuum

KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
ALPHA2S = (0.5, 2.0, 8.0)
PHIS = (0.3, 1.1, 2.7)
LOSSES = (0.0, 0.2, 0.5)
TOL = 1e-10


def _second_input(zeta2):
    return vacuum() if zeta2 == 0.0 else make_state(StateKind.CS, math.sqrt(zeta2))


@pytest.mark.parametrize("kind", KINDS)
def test_vacuum_input_forms(kind):
    for alpha2 in ALPHA2S:
        sa = make_state(kind, math.sqrt(alpha2))
        for phi in PHIS:
            for loss_r in LOSSES:
                cfg = MziConfig(phi=phi, loss_r=loss_r)
                ctx = cf.closed_form_context(kind, alpha2, cfg)
                out = propagate(sa, vacuum(), cfg)
                assert cf.parity_vacuum(ctx) == pytest.approx(
                    detection.parity_expectation(out), abs=TOL
                )
                assert cf.z_vacuum(ctx) == pytest.approx(detection.z_expectation(out), abs=TOL)
                assert cf.parity_derivative_vacuum(ctx) == pytest.approx(
                    detection.expectation_derivative_curve(sa, vacuum(), Scheme.PARITY, [phi], loss_r)[0], abs=TOL
                )
                assert cf.z_derivative_vacuum(ctx) == pytest.approx(
                    detection.expectation_derivative_curve(sa, vacuum(), Scheme.Z, [phi], loss_r)[0], abs=TOL
                )
                p_plus, p_minus = binary_probabilities(out)
                c_plus, c_minus = cf.binary_vacuum(ctx)
                assert c_plus == pytest.approx(p_plus, abs=TOL)
                assert c_minus == pytest.approx(p_minus, abs=TOL)
                for n in (0, 1, 3, 6):
                    assert cf.photon_prob_vacuum(ctx, n) == pytest.approx(
                        detection.port_distribution(out, cutoff=n).probs[n], abs=TOL
                    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("zeta2", (2.0, 25.0))
def test_coherent_input_forms(kind, zeta2):
    sb = _second_input(zeta2)
    for alpha2 in ALPHA2S:
        sa = make_state(kind, math.sqrt(alpha2))
        for phi in PHIS:
            for loss_r in LOSSES:
                cfg = MziConfig(phi=phi, loss_r=loss_r)
                ctx = cf.closed_form_context(kind, alpha2, cfg, zeta2)
                out = propagate(sa, sb, cfg)
                assert cf.parity_coherent(ctx) == pytest.approx(
                    detection.parity_expectation(out), abs=TOL
                )
                assert cf.z_coherent(ctx) == pytest.approx(detection.z_expectation(out), abs=TOL)
                assert cf.parity_derivative_coherent(ctx) == pytest.approx(
                    detection.expectation_derivative_curve(sa, sb, Scheme.PARITY, [phi], loss_r)[0], abs=TOL
                )
                assert cf.z_derivative_coherent(ctx) == pytest.approx(
                    detection.expectation_derivative_curve(sa, sb, Scheme.Z, [phi], loss_r)[0], abs=TOL
                )
                p_plus, p_minus = binary_probabilities(out)
                c_plus, c_minus = cf.binary_coherent(ctx)
                assert c_plus == pytest.approx(p_plus, abs=TOL)
                assert c_minus == pytest.approx(p_minus, abs=TOL)
                for n in (0, 2, 5):
                    assert cf.photon_prob_coherent(ctx, n) == pytest.approx(
                        detection.port_distribution(out, cutoff=n).probs[n], abs=TOL
                    )


def test_coherent_forms_reduce_to_vacuum_forms():
    for kind in KINDS:
        for phi in PHIS:
            cfg = MziConfig(phi=phi, loss_r=0.2)
            ctx = cf.closed_form_context(kind, 2.0, cfg, zeta2=0.0)
            assert cf.parity_coherent(ctx) == pytest.approx(cf.parity_vacuum(ctx), abs=TOL)
            assert cf.z_coherent(ctx) == pytest.approx(cf.z_vacuum(ctx), abs=TOL)


def test_normalization_sign_pairing():
    # the +/- pair resolves as +, +, -, - for j = 0..3
    for j, alpha2 in [(0, 2.0), (1, 2.0), (2, 3.0), (3, 1.0)]:
        kind = [StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3][j]
        ctx = cf.closed_form_context(kind, alpha2, MziConfig(phi=0.1))
        assert cf.normalization_mps(j, alpha2) == pytest.approx(math.sqrt(ctx.norm_sq), abs=1e-12)


def test_mean_photon_matches_states_module():
    from qlidar.states import mean_photon_number

    for kind in KINDS:
        for alpha2 in ALPHA2S:
            ctx = cf.closed_form_context(kind, alpha2, MziConfig(phi=0.0))
            assert cf.mean_photon(ctx) == pytest.approx(
                mean_photon_number(make_state(kind, math.sqrt(alpha2))), abs=1e-10
            )


def test_wigner_closed_form_matches_kernel():
    rng = np.random.default_rng(5)
    for kind in KINDS:
        for alpha in (1.0 + 1.0j, 0.7 - 0.4j):
            state = make_state(kind, alpha)
            for _ in range(5):
                lam = complex(*rng.normal(scale=1.5, size=2))
                assert cf.wigner_closed_form(kind, alpha, lam) == pytest.approx(
                    wigner.wigner_point(state, lam), abs=TOL
                )


def test_context_rejects_custom():
    with pytest.raises(ValueError, match="^no closed form for state kind custom$"):
        cf.closed_form_context("custom", 1.0, MziConfig(phi=0.0))
