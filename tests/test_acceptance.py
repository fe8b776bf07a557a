"""Acceptance gate: the contract-level checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see a pass line per
criterion.  Tolerances are fixed here, not calibrated: engine-versus-oracle
at 1e-8, closed forms at 1e-10, derivatives at 1e-6 relative, fringe counts
as exact integers, fringe-width agreement at 5%.
"""

import math
import time

import numpy as np
import pytest

from qlidar import cli, closedform as cf, detection, fock_oracle, metrology as met, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, make_state, mean_photon_number, vacuum

SIX = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
NONCLASSICAL = SIX[1:]

ORACLE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10
DERIVATIVE_REL_TOL = 1e-6
FWHM_SPREAD_TOL = 0.05

MID_WINDOW = (math.pi - 0.33, math.pi + 0.28)
EXTRA_WINDOWS = ((math.pi / 2 - 0.3, math.pi / 2 + 0.3), (3 * math.pi / 2 - 0.3, 3 * math.pi / 2 + 0.3))


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def _second_input(zeta2):
    return vacuum() if zeta2 == 0.0 else make_state(StateKind.CS, math.sqrt(zeta2))


def test_criterion_1_oracle_equivalence():
    start = time.time()
    worst = 0.0
    count = 0
    # the grid of `qlidar oracle-check`, each state by name
    for name, alpha2, zeta2, phi, loss_r in cli.oracle_grid():
        kind = StateKind(name)
        sa = make_state(kind, math.sqrt(alpha2))
        sb = _second_input(zeta2)
        config = MziConfig(phi=phi, loss_r=loss_r)
        out = propagate(sa, sb, config)
        res = fock_oracle.simulate(sa, sb, config)
        d_parity = abs(detection.parity_expectation(out) - res.parity)
        d_zero = abs(detection.z_expectation(out) - res.zero)
        dist = detection.port_distribution(out, cutoff=len(res.probs) - 1)
        d_pn = float(np.max(np.abs(dist.probs - res.probs)))
        local = max(d_parity, d_zero, d_pn)
        worst = max(worst, local)
        count += 1
        assert local < ORACLE_TOL, (kind, alpha2, zeta2, phi, loss_r, local)
    elapsed = time.time() - start
    assert elapsed < 300.0
    _passline(1, f"{count} grid points, worst |engine - oracle| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_transcription():
    worst = 0.0
    for name, alpha2, zeta2, phi, loss_r in cli.oracle_grid():
        kind = StateKind(name)
        sa = make_state(kind, math.sqrt(alpha2))
        sb = _second_input(zeta2)
        config = MziConfig(phi=phi, loss_r=loss_r)
        ctx = cf.closed_form_context(kind, alpha2, config, zeta2)
        parity = detection.parity_expectation(propagate(sa, sb, config))
        zero = detection.z_expectation(propagate(sa, sb, config))
        if zeta2 == 0.0:
            dp = abs(cf.parity_vacuum(ctx) - parity)
            dz = abs(cf.z_vacuum(ctx) - zero)
        else:
            dp = abs(cf.parity_coherent(ctx) - parity)
            dz = abs(cf.z_coherent(ctx) - zero)
        worst = max(worst, dp, dz)
        assert dp < CLOSED_FORM_TOL and dz < CLOSED_FORM_TOL, (kind, alpha2, zeta2, phi, loss_r)
    _passline(2, f"parity/zero closed forms track the engine, worst gap {worst:.3e}")


def test_criterion_3_analytic_derivatives():
    rng = np.random.default_rng(42)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        kind = SIX[rng.integers(len(SIX))]
        alpha2 = float(rng.choice([0.5, 2.0, 8.0]))
        zeta2 = float(rng.choice([0.0, 2.0, 25.0]))
        phi = float(rng.choice([0.3, 1.1, 2.7]))
        loss_r = float(rng.choice([0.0, 0.2, 0.5]))
        scheme = Scheme.PARITY if rng.random() < 0.5 else Scheme.Z
        sa = make_state(kind, math.sqrt(alpha2))
        sb = _second_input(zeta2)
        analytic = detection.expectation_derivative(sa, sb, MziConfig(phi=phi, loss_r=loss_r), scheme)
        up = detection.expectation(sa, sb, MziConfig(phi=phi + step, loss_r=loss_r), scheme)
        down = detection.expectation(sa, sb, MziConfig(phi=phi - step, loss_r=loss_r), scheme)
        fd = (up - down) / (2 * step)
        rel = abs(analytic - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < DERIVATIVE_REL_TOL, (kind, alpha2, zeta2, phi, loss_r, scheme)
    _passline(3, f"50 random slopes match central differences, worst rel err {worst:.3e}")


def test_criterion_4_foldness_low_energy():
    counts = {}
    for kind in SIX:
        curve = met.sample_curve(make_state(kind, math.sqrt(2.0)), vacuum(), Scheme.PARITY)
        counts[kind] = len(met.peak_locations(curve, (-math.pi, math.pi), side="folded", midline=0.0))
    assert counts[StateKind.CS] == 1
    for kind in NONCLASSICAL:
        assert counts[kind] == 2, kind
    _passline(4, "parity foldness 1 for the coherent state, 2 for the five superpositions")


def test_criterion_5_foldness_high_energy():
    phis = met.periodic_phase_grid(8192, start=0.0)
    sb = make_state(StateKind.CS, math.sqrt(52.0))
    mid_counts = {}
    extras = {}
    for kind in NONCLASSICAL:
        sa = make_state(kind, math.sqrt(51.0))
        assert mean_photon_number(sa) == pytest.approx(51.0, abs=1e-9)
        curve = met.sample_curve(sa, sb, Scheme.PARITY, phis=phis)
        side = "lower" if kind in (StateKind.MPS1, StateKind.MPS3) else "upper"
        mid_counts[kind] = len(met.peak_locations(curve, MID_WINDOW, side=side, midline=0.0))
        extras[kind] = tuple(
            len(met.peak_locations(curve, win, side="upper", midline=0.0, threshold=1e-6))
            for win in EXTRA_WINDOWS
        )
    for kind in NONCLASSICAL:
        assert mid_counts[kind] == 10, (kind, mid_counts[kind])
    assert extras[StateKind.ECSS] == (0, 0)
    for kind in NONCLASSICAL[1:]:
        assert extras[kind] == (1, 1), (kind, extras[kind])
    _passline(5, "mid-region count 10 for all five; extra peak pair only for the four-component states")


def test_criterion_6_fwhm_convergence():
    # zero/nonzero scheme, default baseline
    z_widths = {}
    for kind in SIX:
        widths = []
        for alpha2 in (0.5, 1.0, 2.0, 4.0, 8.0):
            curve = met.sample_curve(make_state(kind, math.sqrt(alpha2)), vacuum(), Scheme.Z)
            widths.append(met.fwhm(curve))
        assert all(widths[i] > widths[i + 1] for i in range(len(widths) - 1)), kind
        z_widths[kind] = widths[-1]
    spread_z = (max(z_widths.values()) - min(z_widths.values())) / min(z_widths.values())
    assert spread_z < FWHM_SPREAD_TOL
    # parity scheme measured against the zero line of the signal
    p_widths = [
        met.fwhm(met.sample_curve(make_state(kind, math.sqrt(8.0)), vacuum(), Scheme.PARITY), baseline=0.0)
        for kind in SIX
    ]
    spread_p = (max(p_widths) - min(p_widths)) / min(p_widths)
    assert spread_p < FWHM_SPREAD_TOL
    _passline(6, f"six-state width spread at |alpha|^2=8: {spread_z:.2%} (zero-count), {spread_p:.2%} (parity)")


def test_criterion_7_snl_saturation():
    point = met.phase_sensitivity(
        make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), MziConfig(phi=0.02), Scheme.PARITY
    )
    assert 0.98 <= point.ratio <= 1.05
    _passline(7, f"coherent-state ratio at phi=0.02 is {point.ratio:.5f}")


def test_criterion_8_super_sensitivity():
    grid = np.linspace(0.02, math.pi - 0.02, 2000)
    sb = make_state(StateKind.CS, math.sqrt(2.0))
    minima = {}
    for kind in SIX:
        points = met.sensitivity_curve(make_state(kind, math.sqrt(2.0)), sb, Scheme.PARITY, grid)
        minima[kind] = min(p.ratio for p in points)
    assert minima[StateKind.CS] >= 1.0
    for kind in NONCLASSICAL:
        assert minima[kind] < 1.0, kind
    _passline(8, f"min ratios: cs {minima[StateKind.CS]:.3f}; others "
                 f"{', '.join(f'{k.value} {v:.3f}' for k, v in minima.items() if k is not StateKind.CS)}")


def test_criterion_9_wigner_properties():
    alpha = 1.0 + 1.0j
    minima = {}
    for kind in SIX:
        grid = wigner.wigner_grid(make_state(kind, alpha))
        assert grid.integral == pytest.approx(1.0, abs=1e-3), kind
        minima[kind] = wigner.negativity_summary(grid).min_value
    assert minima[StateKind.CS] >= -1e-9
    assert minima[StateKind.MPS1] < 0.0 and minima[StateKind.MPS3] < 0.0
    assert abs(minima[StateKind.MPS1]) > abs(minima[StateKind.MPS0])
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        kind = SIX[rng.integers(len(SIX))]
        sa = make_state(kind, math.sqrt(rng.uniform(0.3, 4.0)))
        sb = _second_input(float(rng.choice([0.0, 2.0])))
        config = MziConfig(phi=float(rng.uniform(-3, 3)), loss_r=float(rng.uniform(0, 0.8)))
        out = propagate(sa, sb, config)
        gap = abs(
            detection.parity_expectation(out)
            - math.pi / 2 * wigner.wigner_point(detection.reduced_port_a(out), 0.0)
        )
        worst = max(worst, gap)
        assert gap < 1e-10
    _passline(9, f"negativity ordering and unit integrals hold; parity identity worst gap {worst:.3e}")


def test_criterion_10_determinism(tmp_path):
    cases = [
        ["signal", "--state-a", "mps0", "--alpha2", "2", "--phi-steps", "128"],
        ["sensitivity", "--state-a", "mps1", "--alpha2", "2", "--state-b", "cs", "--zeta2", "2",
         "--phi-min", "0.05", "--phi-max", "3.0", "--phi-steps", "64"],
        ["fwhm", "--scheme", "z", "--alpha2-min", "2", "--alpha2-max", "8", "--alpha2-steps", "2"],
        ["wigner", "--state-a", "mps3", "--window", "4", "--resolution", "31"],
        ["loss", "--state-a", "ecss", "--alpha2", "2", "--phi", "0.02", "--r-steps", "5"],
        ["oracle-check", "--quick"],
    ]
    for i, case in enumerate(cases):
        a = tmp_path / f"case{i}_a.out"
        b = tmp_path / f"case{i}_b.out"
        assert cli.main(case + ["--out", str(a)]) == 0, case
        assert cli.main(case + ["--out", str(b)]) == 0, case
        assert a.read_bytes() == b.read_bytes(), case
    _passline(10, f"{len(cases)} command specs reproduced byte-identically")
