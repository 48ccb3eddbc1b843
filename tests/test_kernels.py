"""The box kernels and the run kernels against brute-force enumerations.

Cover BFS is checked against a plain BFS in ``test_periodic_graph.py``."""

import itertools
from collections import Counter
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratcoord
from ratcoord import _kernels
from ratcoord.errors import BudgetExceeded


@st.composite
def small_linear_sets(draw):
    """(parts, lo, hi, weights) with ``weights . p >= 1`` for every period.

    One to three ``(base, periods)`` parts draw their periods from a shared
    pool, so their period sets overlap, differ or coincide; a part may
    repeat a period, parts may repeat, and periods may be dependent or
    negative in some coordinates.  The sweep takes the parts as one union;
    the counting kernel takes them one at a time.
    """
    dim = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim)
    weights = draw(st.tuples(*[st.integers(-1, 1)] * dim).filter(any))
    pool = draw(
        st.lists(
            vectors.filter(lambda p: sum(w * x for w, x in zip(weights, p)) >= 1),
            min_size=1,
            max_size=4,
        )
    )
    periods = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    parts = draw(st.lists(st.tuples(vectors, periods), min_size=1, max_size=3))
    lo = draw(st.tuples(*[st.integers(-4, 1)] * dim))
    hi = tuple(low + draw(st.integers(0, 4)) for low in lo)
    return tuple(parts), lo, hi, weights


def _brute_force_counts(parts, lo, hi, weights):
    # weights . p >= 1 for every period, so the coefficients of any point in
    # the box sum to at most max(weights . box) - weights . base
    top = sum(w * (h if w > 0 else low) for w, low, h in zip(weights, lo, hi))
    counts = Counter()
    for base, periods in parts:
        reach = top - sum(w * b for w, b in zip(weights, base))
        for ns in itertools.product(range(max(reach, 0) + 1), repeat=len(periods)):
            point = tuple(
                b + sum(n * p[i] for n, p in zip(ns, periods))
                for i, b in enumerate(base)
            )
            if all(low <= c <= h for low, c, h in zip(lo, point, hi)):
                counts[point] += 1
    return dict(counts)


@settings(max_examples=150, deadline=None)
@given(small_linear_sets())
@example(((((2, 2), ((2, 0), (1, 1), (0, 2))),), (0, 0), (14, 14), (1, 1)))
@example(((((0,), ((2,), (3,))),), (-4,), (30,), (1,)))
@example(((((0, 0), ((1, -1), (1, 1))),), (-6, -6), (6, 6), (1, 0)))
@example(((((0, 0), ((2, -1), (-1, 2))),), (-3, -3), (3, 3), (1, 1)))
@example(
    (
        (((0, 0, 0), ((1, 0, 1), (0, 1, 1), (0, 0, 1))),),
        (-9, -9, -9),
        (9, 9, 9),
        (0, 0, 1),
    )
)
@example(
    (
        (((0, 0), ((1, 0), (1, 0), (0, 1))), ((1, 1), ((0, 1), (1, 0))), ((0, 0), ())),
        (0, 0),
        (5, 5),
        (1, 1),
    )
)
def test_point_counts_match_brute_force(case):
    parts, lo, hi, weights = case
    for base, periods in parts:
        counts = _kernels.linear_point_counts(base, periods, lo, hi, weights, 10**6)
        assert counts == _brute_force_counts(((base, periods),), lo, hi, weights)
        assert _cone_points(base, periods, lo, hi, weights) == set(counts)
        if all(x >= 0 for p in periods for x in p):
            # sign-monotone coordinates alone bound the search
            assert _kernels.linear_point_counts(base, periods, lo, hi, None, 10**6) == counts


def _cone_points(base, periods, lo, hi, weights):
    """The box points of one cone from the greedy's kernel, decoded."""
    grid = _kernels.BoxGrid([base], periods, lo, hi, weights, 10**6)
    if grid.levels < 1:  # the base lies above the box's top level
        return set()
    return set(grid.decode(_kernels.linear_points_in_box(grid.index(base), periods, grid)))


def _swept_points(parts, lo, hi, weights, max_nodes):
    """The box points of a union of parts from one grid sweep, decoded.

    A base above the box's top level has no point in the box and no level
    in the grid, so its part is dropped; every other base stays, inside the
    box or not.
    """
    w = weights or (0,) * len(lo)
    top = sum(x * (h if x > 0 else low) for x, low, h in zip(w, lo, hi))
    parts = [part for part in parts if sum(map(mul, w, part[0])) <= top]
    if not parts:
        return set()
    periods = {p for _, part_periods in parts for p in part_periods}
    grid = _kernels.BoxGrid([base for base, _ in parts], periods, lo, hi, weights, max_nodes)
    return set(grid.decode(_kernels.linear_sets_in_box(parts, grid)))


def test_zigzag_needs_the_widening():
    # every path from the base to a point on x = 0 passes x = 3 or x = -3,
    # inside the cell axis widened by 2 * (d - 1) * M_cell = 6 only
    part = ((0, 0), ((3, 1), (-3, 1)))
    args = (0, 0), (0, 6), (0, 1)
    expected = {(0, 0), (0, 2), (0, 4), (0, 6)}
    assert _cone_points(*part, *args) == expected
    assert _swept_points((part,), *args, 10**6) == expected
    assert set(_kernels.linear_point_counts(*part, *args, 10**6)) == expected


@pytest.mark.parametrize(
    "bases,periods,expected",
    [
        (((1, 1),), (), ({(1, 1): 1},)),
        (((5, 5),), ((1, 0),), ({},)),  # past the box, moving away
        # the second base is past the box on an axis no period moves
        (((1, 1), (4, 0)), ((0, 1),), ({(1, 1): 1, (1, 2): 1, (1, 3): 1}, {})),
    ],
)
def test_box_without_weights(bases, periods, expected):
    for base, points in zip(bases, expected, strict=True):
        counts = _kernels.linear_point_counts(base, periods, (0, 0), (3, 3), None, 10**6)
        assert counts == points


def test_zero_node_budget_admits_no_base():
    with pytest.raises(BudgetExceeded, match="exceeded 0 nodes"):
        _kernels.linear_point_counts((0,), (), (0,), (0,), None, 0)


def test_node_budget_counts_bases_and_partial_sums():
    # the base, then 0..3 steps of the period: 1 + 4 nodes
    args = ((0,), ((1,),), (0,), (3,), None)
    assert len(_kernels.linear_point_counts(*args, 5)) == 4
    with pytest.raises(BudgetExceeded):
        _kernels.linear_point_counts(*args, 4)


@settings(max_examples=150, deadline=None)
@given(small_linear_sets())
@example(  # bases past the box: one with a period that turns back, one without
    ((((5, -3), ((1, 1), (-1, 1))), ((9, 9), ((1, 0),))), (0, 0), (4, 4), (0, 1))
)
@example(((((0, 0), ((2, -1), (-1, 2))),), (-3, -3), (3, 3), (1, 1)))  # non-unit
@example(((((1, 1), ()), ((0, 0), ((1, 0),))), (0, 0), (3, 3), (1, 0)))  # no periods
def test_sweep_matches_brute_force(case):
    parts, lo, hi, weights = case
    points = _swept_points(parts, lo, hi, weights, 10**6)
    assert points == set(_brute_force_counts(parts, lo, hi, weights))


@settings(max_examples=100, deadline=None)
@given(small_linear_sets())
@example(((((0, 0), ((2, -1), (-1, 2))),), (-3, -3), (3, 3), (1, 1)))  # non-unit
@example(((((0, 0, 0), ((1, 0, 1), (0, 1, 1))),), (-2, -2, 0), (2, 2, 3), (0, 0, 1)))
def test_decode_walks_functional_then_point_order(case):
    # the greedy of disambiguate walks the box points in this order unsorted
    parts, lo, hi, weights = case
    top = sum(w * (h if w > 0 else low) for w, low, h in zip(weights, lo, hi))
    parts = [part for part in parts if sum(map(mul, weights, part[0])) <= top]
    for functional in (weights, None):
        if not parts:
            break
        periods = {p for _, part_periods in parts for p in part_periods}
        grid = _kernels.BoxGrid([base for base, _ in parts], periods, lo, hi, functional, 10**6)
        points = list(grid.decode(_kernels.linear_sets_in_box(parts, grid)))
        w = functional or (0,) * len(lo)
        assert points == sorted(set(points), key=lambda x: (sum(map(mul, w, x)), x))
        assert set(points) == set(_brute_force_counts(parts, lo, hi, weights))


@st.composite
def linear_sets_without_functional(draw):
    """(parts, lo, hi) whose periods may have a zero-sum combination.

    One or two parts in one or two dimensions; a part may hold a period and
    its negative, and bases may lie outside the box.
    """
    dim = draw(st.integers(1, 2))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim)
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        periods = draw(st.lists(vectors, max_size=3))
        if periods and draw(st.booleans()):
            periods.append(tuple(-x for x in periods[0]))
        base = draw(st.tuples(*[st.integers(-5, 5)] * dim))
        parts.append((base, tuple(periods)))
    lo = draw(st.tuples(*[st.integers(-3, 1)] * dim))
    hi = tuple(low + draw(st.integers(0, 3)) for low in lo)
    return tuple(parts), lo, hi


def _reachable(base, periods, v):
    """True iff base plus some sum of periods is v, by search over points.

    The Steinitz lemma orders the periods of any representation so that every
    partial sum stays within ``2 * dim * M`` (M the largest period coordinate)
    of the segment from base to v, so searching that box is complete.
    """
    slack = 2 * len(base) * max([0] + [abs(x) for p in periods for x in p])
    box = [(min(b, x) - slack, max(b, x) + slack) for b, x in zip(base, v)]
    seen, frontier = {base}, [base]
    while frontier:
        cur = frontier.pop()
        if cur == v:
            return True
        for period in periods:
            nxt = tuple(c + p for c, p in zip(cur, period))
            inside = all(a <= c <= b for c, (a, b) in zip(nxt, box))
            if inside and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


@settings(max_examples=60, deadline=None)
@given(linear_sets_without_functional())
@example(((((0,), ((1,), (-1,))),), (-2,), (3,)))
@example(((((0, 0), ((1, 1), (-1, 1), (0, -2))),), (0, 0), (0, 0)))
@example(((((1, 3), ((1, 2), (0, -1))),), (-1, 0), (1, 3)))  # x + 1 runs off the region
def test_sweep_without_functional_matches_reachability(case):
    parts, lo, hi = case
    box = itertools.product(*[range(low, high + 1) for low, high in zip(lo, hi)])
    expected = {
        point for point in box
        if any(_reachable(base, periods, point) for base, periods in parts)
    }
    assert _swept_points(parts, lo, hi, None, 10**6) == expected


def test_sweep_budget_bounds_level_span():
    # unit functional (0, 1): 16 levels (y = 0..15) over the one cell axis x,
    # whose box range [-5, 5] widens by 2 * (d - 1) * M_cell = 2 on each side
    # to 15 cells, plus one guard cell: 16 * 16 = 256 = 64 * 4 bits
    args = ((((0, 0), ((1, 1), (-1, 1))),), (-5, 0), (5, 15), (0, 1))
    assert _swept_points(*args, 4) == {
        (x, y) for y in range(16) for x in range(-5, 6) if abs(x) <= y and (x + y) % 2 == 0
    }
    with pytest.raises(BudgetExceeded, match="more than 192 bits"):
        _swept_points(*args, 3)


@st.composite
def small_run_kernel_inputs(draw):
    """Arguments of the run kernels, 0-based, with the output dimension and
    a length bound."""
    num_states = draw(st.integers(1, 3))
    out_dim = draw(st.integers(1, 2))
    states = st.integers(0, num_states - 1)
    transitions = draw(
        st.lists(
            st.tuples(states, st.tuples(*[st.integers(-1, 1)] * out_dim), states),
            max_size=4,
        )
    )
    initial = sorted(draw(st.sets(states, min_size=1)))
    final = sorted(draw(st.sets(states)))
    max_len = draw(st.integers(0, 5))
    return (
        num_states,
        [s for s, _, _ in transitions],
        [t for _, _, t in transitions],
        [output for _, output, _ in transitions],
        initial,
        final,
        out_dim,
        max_len,
    )


def _brute_force_walks(
    num_states, sources, targets, outputs, initial, final, out_dim, max_len
):
    """(end state, visited-state mask, vector) of every walk from an initial
    state, one walk at a time, with no deduplication."""
    walks = set()
    for length in range(max_len + 1):
        for start in initial:
            for walk in itertools.product(range(len(sources)), repeat=length):
                state, mask, vector = start, 1 << start, (0,) * out_dim
                for t in walk:
                    if sources[t] != state:
                        break
                    state = targets[t]
                    mask |= 1 << state
                    vector = tuple(a + b for a, b in zip(vector, outputs[t]))
                else:
                    walks.add((state, mask, vector))
    return walks


@settings(max_examples=150, deadline=None)
@given(small_run_kernel_inputs())
@example((1, [], [], [], [0], [0], 2, 3))  # no transitions: only the empty run
def test_run_profiles_match_brute_force(case):
    final = case[5]
    expected = {(mask, v) for s, mask, v in _brute_force_walks(*case) if s in final}
    assert _kernels.accepting_run_profiles(*case, 10**6) == expected


@settings(max_examples=150, deadline=None)
@given(small_run_kernel_inputs())
@example((1, [], [], [], [0], [0], 2, 3))  # no transitions: only the empty run
# zero and negative outputs, disjoint initial and final states
@example((2, [0, 0, 1], [0, 1, 1], [(0,), (-1,), (-1,)], [0], [1], 1, 4))
@example((2, [0], [1], [(1, -1)], [1], [0], 2, 5))  # the final state is unreachable
def test_run_vectors_match_brute_force(case):
    walks = _brute_force_walks(*case)
    final = case[5]
    expected = {v for s, _, v in walks if s in final}
    assert _kernels.accepting_run_vectors(*case, 10**6) == expected
    # the budget counts distinct (state, vector) pairs, the initial ones too
    entries = len({(s, v) for s, _, v in walks})
    with pytest.raises(BudgetExceeded):
        _kernels.accepting_run_vectors(*case, entries - 1)
    try:
        assert _kernels.accepting_run_vectors(*case, entries) == expected
    except BudgetExceeded as exc:  # only a grid too wide for that budget
        assert "would span" in str(exc)


def test_run_vectors_budget_counts_state_vector_pairs():
    # 41 pairs (state 0, (k,)); masks or lengths would make more keys
    case = (1, [0, 0], [0, 0], [(0,), (1,)], [0], [0], 1, 40)
    assert _kernels.accepting_run_vectors(*case, 41) == {(k,) for k in range(41)}
    with pytest.raises(BudgetExceeded, match="exceeded 40 states"):
        _kernels.accepting_run_vectors(*case, 40)


def test_run_vectors_span_trips_before_the_search():
    # two pairs, (0,) and (1000,), but a grid of 1001 bits: more than 64 * 2
    case = (1, [0], [0], [(1000,)], [0], [0], 1, 1)
    assert _kernels.accepting_run_vectors(*case, 16) == {(0,), (1000,)}
    with pytest.raises(BudgetExceeded, match="span more than 128 bits"):
        _kernels.accepting_run_vectors(*case, 2)


def test_backend_name_exposed():
    assert ratcoord.kernel_backend == "python"


def test_high_dimension_box():
    base = (0,) * 13
    hi = (1,) * 13
    points = _cone_points(base, (), base, hi, None)
    assert points == set(_kernels.linear_point_counts(base, (), base, hi, None, 10**6))
    assert points == {base}
