"""Property-based checks of invariants the fixed regression grids can miss."""

import cmath
import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from qlidar import cli, detection, fock_oracle, metrology, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import IMAG_RESIDUE_TOL, StateKind, SuperposedState, _overlap_exponent, density_operator, gram_sum, make_state, vacuum

from helpers import (
    reference_chunk,
    reference_curve,
    reference_fmt,
    reference_phase_resolved_amplitudes,
    reference_rows_text,
    reference_simulate_density,
    reference_slope_bound,
    reference_wigner,
)

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
@given(kinds, st.floats(0.5, 8.0), st.floats(0.0, 25.0), phis, st.floats(0.0, 0.9, exclude_max=True))
def test_oracle_conserves_probability_and_meets_engine(kind, alpha2, zeta2, phi, loss_r):
    # the oracle grid's energy range, drawn between its points
    sa, sb = _inputs(kind, alpha2, zeta2)
    cfg = MziConfig(phi=phi, loss_r=loss_r)
    res = fock_oracle.simulate(sa, sb, cfg)
    assert abs(float(np.sum(res.probs)) + res.tail_bound - 1.0) <= 1e-12
    assert -1.0 <= res.parity <= 1.0
    assert res.zero == res.probs[0]
    out = propagate(sa, sb, cfg)
    assert abs(detection.parity_expectation(out) - res.parity) < 1e-8
    assert abs(detection.z_expectation(out) - res.zero) < 1e-8
    assert np.abs(detection.port_distribution(out, cutoff=len(res.probs) - 1).probs - res.probs).max() < 1e-8


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
@given(kinds, schemes, st.floats(0.1, 8.0), zeta2s, losses, st.integers(1, 64))
def test_slopes_and_stationary_points_match_four_mode_reference(kind, scheme, alpha2, zeta2, loss_r, quarter):
    # the grid holds 0, +-pi/2 and +-pi, where slopes vanish and the class hangs on the engine's slope bound B
    grid = np.linspace(-math.pi, math.pi, 4 * quarter + 1)
    grid[[quarter, 2 * quarter, 3 * quarter]] = -0.5 * math.pi, 0.0, 0.5 * math.pi
    sa, sb = _inputs(kind, alpha2, zeta2)
    values, slopes = reference_curve(sa, sb, scheme, grid, loss_r)
    bound = reference_slope_bound(sa, sb)
    assert np.max(np.abs(detection.expectation_derivative_curve(sa, sb, scheme, grid, loss_r) - slopes)) <= bound
    # the class rule of metrology.sensitivity_curve, on the reference slopes; the values are the engine's bits
    b = detection._slope_bound(*detection._input_pairs(sa, sb))
    variance = np.maximum(0.0, 1.0 - values * values if scheme is Scheme.PARITY else values - values * values)
    flat = (np.abs(slopes) <= b) | (variance <= 0.0)
    got = np.isinf([p.delta_phi for p in metrology.sensitivity_curve(sa, sb, scheme, grid, loss_r)])
    # nearer B than the bound, a slope is rounding noise in both kernels
    clear = np.abs(np.abs(slopes) - b) > bound
    assert np.array_equal(got[clear], flat[clear])


@PROPERTY_SETTINGS
@given(kinds, schemes, st.floats(0.01, 8.0), zeta2s, losses, st.integers(2, 64))
def test_slope_bound_covers_each_phase_rounding_bound(kind, scheme, alpha2, zeta2, loss_r, steps):
    # B admits every slope residue that the per-phase post-cancellation bound
    # beta = K^2 2^-53 |c_0 - 1| sum_ij |x_ij| admits, so the one residue rule only widens
    sa, sb = _inputs(kind, alpha2, zeta2)
    w, amps_in = detection._input_pairs(sa, sb)
    phis = np.linspace(-math.pi, math.pi, steps)
    u, du = reference_phase_resolved_amplitudes(amps_in, phis, loss_r)
    c = {Scheme.PARITY: -1.0, Scheme.Z: 0.0}[scheme]
    exponent = _overlap_exponent(u[:, 0, :], c) + sum(_overlap_exponent(u[:, m, :]) for m in range(1, u.shape[1]))
    x = np.conj(du)[:, None, :] * u[None, :, 0, :]
    x = (x + np.conj(x.transpose(1, 0, 2))) * (np.conj(w)[:, None] * w[None, :])[:, :, None] * np.exp(exponent)
    beta = len(w) ** 2 * 2.0**-53 * abs(c - 1.0) * np.sum(np.abs(x), axis=(0, 1))
    bound = detection._slope_bound(w, amps_in)
    assert np.all(beta <= bound)
    assert 2.0 * bound == reference_slope_bound(sa, sb)  # the one-kernel half of the reference bound


@PROPERTY_SETTINGS
@given(
    kinds,
    st.floats(0.01, 60.0),
    st.one_of(
        st.builds(vacuum),
        st.builds(make_state, st.just(StateKind.CS), st.just(math.sqrt(2.0))),
        st.builds(make_state, st.sampled_from(KINDS[2:]), alpha2s.map(math.sqrt)),
    ),
    st.sampled_from([0.0, 0.2, 0.5]),
    schemes,
    st.one_of(st.integers(1, 8), st.integers(detection.CURVE_CHUNK, 5 * detection.CURVE_CHUNK // 2)),
    st.floats(-3.0, math.pi),
)
def test_chunk_kernel_is_the_amplitude_stack_kernel_bit_for_bit(kind, alpha2, sb, loss_r, scheme, steps, end):
    # the in-place chunk kernel keeps every bit of the (K, M, P) stack kernel, values and slopes, in every chunk
    # of 1 to 2.5 chunks of phases, and on the short grids of the one-phase slope
    sa = make_state(kind, math.sqrt(alpha2))
    w, amps_in = detection._input_pairs(sa, sb)
    grid = np.linspace(-math.pi, end, steps)
    bound = detection._slope_bound(w, amps_in)
    chunks = [slice(lo, lo + detection.CURVE_CHUNK) for lo in range(0, steps, detection.CURVE_CHUNK)]
    try:
        ref = [reference_chunk(w, amps_in, grid[part], loss_r, scheme, bound) for part in chunks]
    except ArithmeticError as exc:  # a residue past its tolerance at small alpha2: the kernel raises it alike
        with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
            detection._sweep(w, amps_in, scheme, grid, loss_r, want_derivative=True)
        return
    ref_values, ref_slopes = (np.concatenate(parts) for parts in zip(*ref))
    values, slopes = detection._sweep(w, amps_in, scheme, grid, loss_r, want_derivative=True)
    assert values.tobytes() == ref_values.tobytes()
    assert slopes.tobytes() == ref_slopes.tobytes()
    assert detection._sweep(w, amps_in, scheme, grid, loss_r, want_derivative=False)[0].tobytes() == ref_values.tobytes()


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
    """Header and columns drawn from a small pool (so values repeat), maybe after a str column.

    A value column is a float64 array, or a tuple of Python floats as oracle-check's zipped rows give.
    """
    values = st.floats(width=64, allow_nan=not finite, allow_infinity=not finite)
    specials = [x for x in SPECIAL_FLOATS if math.isfinite(x)] if finite else SPECIAL_FLOATS
    pool = draw(st.lists(st.one_of(values, st.sampled_from(specials)), min_size=1, max_size=12))
    rows = draw(st.integers(0, 30))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        cells = [pool[i] for i in draw(picks)]
        columns.append(tuple(cells) if draw(st.booleans()) else np.array(cells))
    if draw(st.booleans()):
        columns.insert(0, tuple(draw(st.lists(st.sampled_from(["cs", "mps1", "ecss"]), min_size=rows, max_size=rows))))
    return [f"c{k}" for k in range(len(columns))], columns


def _written(header, columns, fmt, to_file=False) -> str:
    if to_file:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.out")
            cli._write_rows(path, header, columns, fmt)
            with open(path) as fh:
                return fh.read()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_rows(None, header, columns, fmt)
    return buf.getvalue()


def _cells(columns) -> list[list]:
    return [[c if isinstance(c, str) else float(c) for c in row] for row in zip(*columns)]


# block sizes below the table lengths, so that rows, repeated values and specials cross block edges
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, cli.ROW_CHUNK])
@settings(deadline=None, max_examples=200)
@given(table=column_tables())
def test_column_writer_matches_row_reference_csv(chunk, to_file, table):
    header, columns = table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "ROW_CHUNK", chunk)
        assert _written(header, columns, "csv", to_file) == reference_rows_text(header, _cells(columns), "csv")


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    # a wigner-like table: two axes with few distinct values and one column of distinct values
    rows = 200_000
    columns = [np.repeat(np.linspace(-5, 5, 400), 500), np.tile(np.linspace(-5, 5, 500), 400)]
    columns.append(np.random.default_rng(3).normal(size=rows))
    tracemalloc.start()
    try:
        cli._write_rows(str(tmp_path / "rows.csv"), ["y1", "y2", "w"], columns, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "rows.csv").stat().st_size > 10e6
    assert peak < 5e6, peak


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
