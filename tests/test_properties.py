"""Property-based checks of invariants the fixed regression grids can miss."""

import cmath
import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from qlidar import cli, detection, fock_oracle, metrology, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import IMAG_RESIDUE_TOL, StateKind, SuperposedState, density_operator, gram_sum, make_state, vacuum

from helpers import reference_fmt, reference_rows_text, reference_simulate_density, reference_wigner

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
    kraus = reference_simulate_density(sa, sb, cfg, cutoff=24)
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


@st.composite
def wigner_grids(draw):
    """An operator with unequal y1 and y2 windows and a resolution that passes the sampling guard.

    The operator is a pure state up to |alpha| = 6 or the reduced port-a operator
    of two multi-photonic inputs (K = 16 amplitudes).
    """
    if draw(st.booleans()):
        alpha = math.sqrt(draw(st.floats(0.1, 36.0))) * cmath.exp(1j * draw(phis))
        op = density_operator(make_state(draw(kinds), alpha))
    else:
        sa, sb = (make_state(draw(st.sampled_from(KINDS[2:])), math.sqrt(draw(alpha2s))) for _ in range(2))
        op = detection.reduced_port_a(propagate(sa, sb, MziConfig(phi=draw(phis), loss_r=draw(losses))))
    half = wigner.default_window(op)
    y1_range = (-half, half * draw(st.floats(0.2, 0.9)))
    y2_range = (-half * draw(st.floats(0.2, 0.9)), half)
    floor = wigner._min_resolution(op, y1_range[1] - y1_range[0], y2_range[1] - y2_range[0])
    return op, y1_range, y2_range, max(floor, 8) + draw(st.integers(0, 16))


@PROPERTY_SETTINGS
@given(wigner_grids())
def test_wigner_grid_matches_pointwise_reference(case):
    op, y1_range, y2_range, resolution = case
    # pair terms of total size sum|C_ij| cancel, so rounding of that order is allowed
    allowance = 1e-13 * np.sum(np.abs(op.coeffs))
    try:
        grid = wigner.wigner_grid(op, y1_range, y2_range, resolution)
        lam = grid.y1_axis[:, None] + 1j * grid.y2_axis[None, :]
        reference = reference_wigner(op, lam)
    except ArithmeticError as exc:
        if "imaginary residue" not in str(exc):
            raise
        # the residue check's absolute tolerance may fire only where the rounding allowed here exceeds it
        assert allowance > IMAG_RESIDUE_TOL
        return
    assert np.max(np.abs(grid.values - reference)) <= allowance


# cells whose spelling or bit pattern a value-keyed formatter could confuse
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, _NAN_PAYLOAD, 5e-324, -5e-324, 2.2250738585072014e-308]


@st.composite
def column_tables(draw, finite=False):
    """Header and columns: float64 arrays drawn from a small pool (so values repeat), maybe after a str column."""
    values = st.floats(width=64, allow_nan=not finite, allow_infinity=not finite)
    specials = [x for x in SPECIAL_FLOATS if math.isfinite(x)] if finite else SPECIAL_FLOATS
    pool = draw(st.lists(st.one_of(values, st.sampled_from(specials)), min_size=1, max_size=12))
    rows = draw(st.integers(0, 30))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows)
    columns = [np.array([pool[i] for i in draw(picks)]) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        columns.insert(0, draw(st.lists(st.sampled_from(["cs", "mps1", "ecss"]), min_size=rows, max_size=rows)))
    return [f"c{k}" for k in range(len(columns))], columns


def _written(header, columns, fmt) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_rows(None, header, columns, fmt)
    return buf.getvalue()


def _cells(columns) -> list[list]:
    return [[c if isinstance(c, str) else float(c) for c in row] for row in zip(*columns)]


@settings(deadline=None, max_examples=200)
@given(column_tables())
def test_column_writer_matches_row_reference_csv(table):
    header, columns = table
    assert _written(header, columns, "csv") == reference_rows_text(header, _cells(columns), "csv")


@settings(deadline=None, max_examples=200)
@given(column_tables(finite=True))
def test_column_writer_matches_row_reference_json(table):
    header, columns = table
    assert _written(header, columns, "json") == reference_rows_text(header, _cells(columns), "json")


@settings(deadline=None, max_examples=100)
@given(column_tables())
def test_json_nonfinite_cells_carry_csv_spelling(table):
    header, columns = table
    text = _written(header, columns, "json")
    rows = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))["rows"]
    cells = _cells(columns)
    spelled = [[c if isinstance(c, str) or math.isfinite(c) else reference_fmt(c) for c in row] for row in cells]
    assert rows == spelled
    assert text == reference_rows_text(header, spelled, "json")


components = st.floats(-3.0, 3.0)


@st.composite
def term_lists(draw):
    """K in 1..6 finite complex weights and amplitudes."""
    k = draw(st.integers(1, 6))
    complexes = st.lists(st.builds(complex, components, components), min_size=k, max_size=k)
    return draw(complexes), draw(complexes)


@settings(deadline=None, max_examples=100)
@given(term_lists(), st.floats(1e-3, 1e3), phis)
def test_state_is_normalized_by_construction(terms, scale, phase):
    weights, amplitudes = terms
    assume(gram_sum(weights, amplitudes) >= 1e-6)
    state = SuperposedState(weights, amplitudes)
    assert gram_sum(state.weights, state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # a nonzero factor on the input weights survives only as its phase
    c = scale * cmath.exp(1j * phase)
    scaled = SuperposedState(np.multiply(c, weights), amplitudes)
    assert np.max(np.abs(scaled.weights - c / abs(c) * state.weights)) <= 1e-12
