"""Array evaluations and lockstep searches: bit-identical to the one-phase calls and the one-search-at-a-time refinements."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlidar import detection, metrology as met
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig, propagate
from qlidar.states import StateKind, make_state, vacuum

from helpers import (
    reference_bisect_crossing,
    reference_fwhm,
    reference_golden_extremum,
    reference_peak_locations,
)

KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
SIDES = ("upper", "lower", "folded")
MID_WINDOW = (math.pi - 0.33, math.pi + 0.28)
EXTRA_WINDOWS = ((math.pi / 2 - 0.3, math.pi / 2 + 0.3), (3 * math.pi / 2 - 0.3, 3 * math.pi / 2 + 0.3))


def _counting(f):
    """f and a list that records each call's argument."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


class TestArrayEvaluator:
    @settings(deadline=None, max_examples=40)
    @given(
        kind_a=st.sampled_from(KINDS),
        kind_b=st.sampled_from([None] + KINDS),
        alpha2=st.floats(0.3, 8.0),
        zeta2=st.floats(0.3, 8.0),
        angles=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        loss_r=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        scheme=st.sampled_from([Scheme.PARITY, Scheme.Z]),
        phis=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=12),
    )
    def test_array_call_matches_float_calls_bit_for_bit(self, kind_a, kind_b, alpha2, zeta2, angles, loss_r, scheme, phis):
        # complex amplitudes: with real ones many products are exact and hide a change of arithmetic
        sa = make_state(kind_a, math.sqrt(alpha2) * cmath.exp(1j * angles[0]))
        sb = vacuum() if kind_b is None else make_state(kind_b, math.sqrt(zeta2) * cmath.exp(1j * angles[1]))
        evaluate = detection.expectation_evaluator(sa, sb, scheme, loss_r)
        singles = [evaluate(phi) for phi in phis]
        assert all(type(v) is float for v in singles)
        batch = evaluate(np.array(phis))
        assert isinstance(batch, np.ndarray) and batch.shape == (len(phis),)
        assert batch.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("kind_a, kind_b, terms", [(StateKind.CS, StateKind.CS, 1), (StateKind.MPS3, StateKind.MPS1, 16)])
    def test_fewest_and_most_terms(self, kind_a, kind_b, terms):
        sa, sb = make_state(kind_a, 1.2 * cmath.exp(0.7j)), make_state(kind_b, 0.9 * cmath.exp(-0.4j))
        assert len(propagate(sa, sb, MziConfig(phi=0.3)).weights) == terms
        phis = np.linspace(-3.0, 3.0, 7)
        for scheme in (Scheme.PARITY, Scheme.Z):
            for loss_r in (0.0, 0.4):
                evaluate = detection.expectation_evaluator(sa, sb, scheme, loss_r)
                assert evaluate(phis).tobytes() == np.array([evaluate(p) for p in phis.tolist()]).tobytes()

    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_nan_phase_rejected_in_an_array_as_in_a_float(self, scheme):
        evaluate = detection.expectation_evaluator(make_state(StateKind.ECSS, 1.0), vacuum(), scheme)
        with pytest.raises(ValueError, match="phi must be finite") as single:
            evaluate(math.nan)
        with pytest.raises(ValueError, match="phi must be finite") as batch:
            evaluate(np.array([0.1, math.nan, 0.3]))
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
    def test_residue_in_an_array_raises_as_the_float_call(self, scheme):
        # the weights of a small mps3 grow like |zeta|^-3, so at some phases the pair sum
        # keeps an imaginary residue above its tolerance
        evaluate = detection.expectation_evaluator(make_state(StateKind.CS, 1.0), make_state(StateKind.MPS3, 0.15), scheme)
        outcomes = {}
        for phi in np.linspace(-3.0, 3.0, 61).tolist():
            try:
                outcomes[phi] = evaluate(phi)
            except ArithmeticError as exc:
                outcomes[phi] = exc
        good = next(phi for phi, out in outcomes.items() if isinstance(out, float))
        bad = [phi for phi, out in outcomes.items() if isinstance(out, ArithmeticError)]
        with pytest.raises(ArithmeticError) as batch:
            evaluate(np.array([good, bad[0], bad[1], good]))
        assert type(batch.value) is type(outcomes[bad[0]]) and str(batch.value) == str(outcomes[bad[0]])

    def test_negative_p0_in_an_array_raises_as_the_float_call(self):
        # over P phases the port-a amplitudes are (P, K) and the overlap product (P, K, K)
        w, a = np.array([0.6, 0.8], dtype=complex), np.array([0.5, -0.5], dtype=complex)
        rests = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex), -2.0 * np.eye(2, dtype=complex)]
        with pytest.raises(detection.NegativeProbability) as lowest:
            detection._photon_probabilities(w, a, rests[2], 0)
        with pytest.raises(detection.NegativeProbability) as batch:
            detection._photon_probabilities(w, np.stack([a] * 3), np.stack(rests), 0)
        assert str(batch.value) == str(lowest.value)


TREE = 2**met.AHEAD - 1  # points a search asks in one step: its next AHEAD steps, both outcomes of each


def _polynomial(coeffs, center):
    """sum_k coeffs[k] (x - center)^k by Horner's rule: one float or array expression, bit for bit the same elementwise."""

    def f(x):
        y, total = x - center, 0.0
        for c in reversed(coeffs):
            total = total * y + c
        return total

    return f


def _midpoint(lo: float, hi: float, path) -> float:
    """The bisection midpoint reached from [lo, hi] by keeping the upper (True) or lower half at each step of path."""
    for upper in path:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if upper else (lo, mid)
    return 0.5 * (lo + hi)


class _Stop(Exception):
    pass


def _next_steps(reference, *args, start=()):
    """The points a one-search-at-a-time reference asks in its next AHEAD steps, over every outcome of each step.

    f gives the values of ``start`` first, then +-10^k at the k-th step, above or
    below every earlier value.
    """
    points = set()
    for signs in itertools.product((1.0, -1.0), repeat=met.AHEAD):
        asked = []

        def f(x):
            if len(asked) == len(start) + met.AHEAD:
                raise _Stop
            asked.append(x)
            k = len(asked) - len(start)  # the step after the start points
            return start[len(asked) - 1] if k <= 0 else signs[k - 1] * 10.0**k

        try:
            reference(f, *args)
        except _Stop:
            pass
        points.update(asked[len(start) :])
    return points


BRACKETS = st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 3.0)).map(lambda b: (b[0], b[0] + b[1]))
COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=4)


class TestLockstepSearches:
    def test_golden_searches_finishing_at_different_steps(self):
        f = lambda x: -((x - 0.3) ** 2) - 0.1 * np.cos(7 * x)
        brackets = [(0.0, 1.0), (0.2, 0.45), (0.29, 0.31), (-0.5, 2.5)]
        alone = []
        for lo, hi in brackets:
            g, seen = _counting(f)
            alone.append((reference_golden_extremum(g, lo, hi), len(seen) - 2))  # steps after both start points
        g, seen = _counting(f)
        assert met._lockstep(g, [met._golden_search(lo, hi) for lo, hi in brackets]) == [x for x, _ in alone]
        steps = sorted(n for _, n in alone)
        assert steps[0] < steps[-1]
        assert [np.ndim(x) for x in seen] == [1] * len(seen)  # every step is one array call
        assert len(seen) <= 1 + math.ceil(steps[-1] / met.AHEAD)  # the start points, then one call per AHEAD steps
        sizes = [len(x) for x in seen]
        assert sizes[:2] == [2 * len(brackets), TREE * len(brackets)]
        assert sizes[1:] == sorted(sizes[1:], reverse=True) and sizes[-1] <= TREE  # searches drop out as they finish

    def test_bisection_that_hits_zero_exactly(self):
        # one function for both searches: the first midpoint of [0, 1] is its root, 0.0 exactly; [2, 3] holds the other
        f = lambda x: np.where(x < 1.5, x - 0.5, x - 2.123456789)
        g, seen = _counting(f)
        searches = [met._bisect_search(0.0, 1.0, -0.5, 0.5), met._bisect_search(2.0, 3.0, f(2.0), f(3.0))]
        assert met._lockstep(g, searches) == [
            reference_bisect_crossing(f, 0.0, 1.0, -0.5, 0.5),
            reference_bisect_crossing(f, 2.0, 3.0, f(2.0), f(3.0)),
        ]
        assert reference_bisect_crossing(f, 0.0, 1.0, -0.5, 0.5) == 0.5
        assert [len(x) for x in seen[:2]] == [2 * TREE, TREE]  # the first search stops at its first point
        assert all(np.all(x > 1.5) for x in seen[1:])

    @settings(deadline=None, max_examples=60)
    @given(bracket=BRACKETS, start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), flo=st.sampled_from([-0.5, 0.5]))
    def test_each_ask_holds_every_point_of_the_next_steps(self, bracket, start, flo):
        lo, hi = bracket
        golden = met._golden_search(lo, hi)
        assert len(golden.send(None)) == 2  # the start points, one step
        tree = golden.send(start)
        assert len(tree) == TREE and set(tree) == _next_steps(reference_golden_extremum, lo, hi, start=start)
        tree = met._bisect_search(lo, hi, flo, -flo).send(None)
        assert len(tree) == TREE and set(tree) == _next_steps(reference_bisect_crossing, lo, hi, flo, -flo)

    @settings(deadline=None, max_examples=60)
    @given(
        specs=st.lists(st.tuples(BRACKETS, st.integers(1, 3 * met.AHEAD + 2)), min_size=1, max_size=4),
        coeffs=COEFFS,
        center=st.floats(-4.0, 4.0),
    )
    def test_golden_searches_equal_the_one_search_reference(self, specs, coeffs, center):
        # a tolerance just above the width after n steps: some searches finish mid-tree, at different steps
        f = _polynomial([0.0, 0.0, -1.0] + coeffs, center)
        tols = [(hi - lo) * met.GOLDEN ** (n + 1) * 1.001 for (lo, hi), n in specs]
        g, seen = _counting(f)
        got = met._lockstep(g, [met._golden_search(lo, hi, tol) for ((lo, hi), _), tol in zip(specs, tols)])
        assert got == [reference_golden_extremum(f, lo, hi, tol) for ((lo, hi), _), tol in zip(specs, tols)]
        assert all(np.ndim(x) == 1 and len(x) <= TREE * len(specs) for x in seen)

    @settings(deadline=None, max_examples=60)
    @given(
        specs=st.lists(
            st.tuples(BRACKETS, st.integers(1, 3 * met.AHEAD + 2), st.lists(st.booleans(), min_size=1, max_size=met.AHEAD)),
            min_size=1,
            max_size=4,
        ),
        coeffs=COEFFS,
        exact=st.booleans(),
    )
    def test_bisections_equal_the_one_search_reference(self, specs, coeffs, exact):
        # search k runs on its bracket shifted by 20 k, where f has its own root: with exact, a midpoint of the
        # first, second or third level, where f is 0.0 exactly
        brackets, roots = [], []
        for k, ((lo, hi), n, path) in enumerate(specs):
            lo, hi = lo + 20.0 * k, hi + 20.0 * k
            brackets.append((lo, hi, (hi - lo) * 0.5**n * 1.001))
            roots.append(_midpoint(lo, hi, path[:-1]) if exact else lo + (hi - lo) * (0.1 + 0.8 * sum(path) / len(path)))
        growth = _polynomial([1.0] + [0.1 * c for c in coeffs], 0.0)

        def piece(x, root):  # the sign of x - root
            g = growth(x - root)
            return (x - root) * (g * g + 0.5)

        def f(x):
            k = np.clip(np.floor((np.asarray(x) + 10.0) / 20.0).astype(int), 0, len(specs) - 1)
            return np.choose(k, [piece(x, root) for root in roots])

        alone = [reference_bisect_crossing(f, lo, hi, f(lo), f(hi), tol) for lo, hi, tol in brackets]
        g, seen = _counting(f)
        assert met._lockstep(g, [met._bisect_search(lo, hi, f(lo), f(hi), tol) for lo, hi, tol in brackets]) == alone
        assert all(np.ndim(x) == 1 and len(x) <= TREE * len(specs) for x in seen)
        reached = [len(path) <= n for _, n, path in specs]
        if exact:
            assert [x == root for x, root, hit in zip(alone, roots, reached) if hit] == [True] * sum(reached)

    def test_bisection_with_a_zero_end_value_makes_no_call(self):
        def never(x):
            raise AssertionError(f"unexpected evaluation at {x!r}")

        searches = [met._bisect_search(0.25, 1.0, 0.0, 0.75), met._bisect_search(0.0, 0.25, -0.25, 0.0)]
        assert met._lockstep(never, searches) == [0.25, 0.25]

    def test_a_failing_search_raises(self):
        def search():
            yield (0.0,)
            raise met.NoPeak("stop")

        with pytest.raises(met.NoPeak):
            met._lockstep(lambda x: x, [met._golden_search(0.0, 1.0), search()])


# (scheme, kind, alpha2, zeta2, loss_r): all eight parity/mps3 widths of the CLI
# default grid (each meets its half level at a flat inflection), Z widths, lossy widths
FWHM_SPECS = (
    [("parity", "mps3", float(a2), 0.0, 0.0) for a2 in np.linspace(0.5, 8.0, 8)]
    + [("z", kind.value, 2.0, 0.0, 0.0) for kind in KINDS]
    + [("parity", "ecss", 3.0, 1.0, 0.3), ("z", "mps1", 3.0, 1.0, 0.3)]
)


class TestExactAgainstReference:
    @pytest.mark.parametrize("scheme, kind, alpha2, zeta2, loss_r", FWHM_SPECS)
    def test_fwhm(self, scheme, kind, alpha2, zeta2, loss_r):
        sa = make_state(StateKind.parse(kind), math.sqrt(alpha2))
        sb = vacuum() if zeta2 == 0.0 else make_state(StateKind.CS, math.sqrt(zeta2))
        curve = met.sample_curve(sa, sb, Scheme.parse(scheme), loss_r=loss_r)
        evaluate, seen = _counting(curve.evaluator)
        counted = met.SignalCurve(phis=curve.phis, values=curve.values, evaluator=evaluate)
        assert met.fwhm(counted) == reference_fwhm(curve)
        assert len(seen) <= 52

    def test_fwhm_with_baseline_and_without_evaluator(self):
        curve = met.sample_curve(make_state(StateKind.MPS2, math.sqrt(2.0)), vacuum(), Scheme.PARITY)
        assert met.fwhm(curve, baseline=0.0) == reference_fwhm(curve, baseline=0.0)
        sampled = met.SignalCurve(phis=curve.phis, values=curve.values)
        assert met.fwhm(sampled) == reference_fwhm(sampled)

    def test_low_energy_peaks(self):
        for kind in KINDS:
            curve = met.sample_curve(make_state(kind, math.sqrt(2.0)), vacuum(), Scheme.PARITY)
            for side in SIDES:
                for midline in (0.0, None):
                    args = ((-math.pi, math.pi), side, midline)
                    assert met.peak_locations(curve, *args) == reference_peak_locations(curve, *args), (kind, side)

    @pytest.mark.parametrize("kind", KINDS[1:])
    def test_criterion_5_windows(self, kind):
        phis = met.periodic_phase_grid(8192, start=0.0)
        sb = make_state(StateKind.CS, math.sqrt(52.0))
        curve = met.sample_curve(make_state(kind, math.sqrt(51.0)), sb, Scheme.PARITY, phis=phis)
        evaluate, seen = _counting(curve.evaluator)
        counted = met.SignalCurve(phis=curve.phis, values=curve.values, evaluator=evaluate)
        for window, threshold in [(MID_WINDOW, met.PEAK_NOISE_THRESHOLD)] + [(w, 1e-6) for w in EXTRA_WINDOWS]:
            for side in SIDES:
                args = (window, side, 0.0, threshold)
                del seen[:]
                got = met.peak_locations(counted, *args)
                assert got == reference_peak_locations(curve, *args), (window, side)
                assert len(seen) <= 30  # all peaks of the window share each step's call
