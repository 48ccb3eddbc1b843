"""Backend equivalence: the compiled box kernel, the only compiled twin, must
match the pure one; the box kernel and the run kernel must match brute-force
enumerations.  Cover BFS is checked against a plain BFS in
``test_periodic_graph.py``."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratcoord
from ratcoord import parse_periodic_graph
from ratcoord._kernels import pure
from ratcoord.errors import BudgetExceeded
from .conftest import GRAPH_TEXTS

try:
    from ratcoord._kernels import _speed
except ImportError:
    _speed = None

needs_compiled = pytest.mark.skipif(
    _speed is None, reason="compiled kernels not built"
)


@needs_compiled
class TestBackendEquivalence:
    BOX_CASES = [
        ((2, 2), ((2, 0), (1, 1), (0, 2)), (0, 0), (14, 14), (1, 1)),
        ((0,), ((2,), (3,)), (-4,), (30,), (1,)),
        ((0, 0), ((1, -1), (1, 1)), (-6, -6), (6, 6), (1, 0)),
        ((0, 0, 0), ((1, 0, 1), (0, 1, 1), (0, 0, 1)), (-9, -9, -9), (9, 9, 9), (0, 0, 1)),
        ((1, 1), (), (0, 0), (3, 3), None),
        ((5, 5), ((1, 0),), (0, 0), (3, 3), None),
    ]

    @pytest.mark.parametrize("base,periods,lo,hi,w", BOX_CASES)
    def test_points_in_box(self, base, periods, lo, hi, w):
        a = pure.linear_points_in_box(base, periods, lo, hi, w, 10**6)
        b = _speed.linear_points_in_box(base, periods, lo, hi, w, 10**6)
        assert a == b

    @pytest.mark.parametrize("base,periods,lo,hi,w", BOX_CASES)
    def test_box_budgets_match(self, base, periods, lo, hi, w):
        # the least budget the pure kernel needs is also the compiled one's
        need = next(
            n
            for n in itertools.count(0)
            if _fits(pure.linear_points_in_box, base, periods, lo, hi, w, n)
        )
        assert _fits(_speed.linear_points_in_box, base, periods, lo, hi, w, need)
        assert not _fits(
            _speed.linear_points_in_box, base, periods, lo, hi, w, need - 1
        )

    def test_pipeline_results_identical(self):
        import ratcoord.cli as cli

        g = parse_periodic_graph(GRAPH_TEXTS["honeycomb"])
        report = cli.pipeline_coordination_gf(g, 1, "both", 25)
        assert report.gf_fit == report.gf_symbolic

    def test_cli_reports_identical_across_backends(self, tmp_path):
        import os
        import subprocess
        import sys

        path = tmp_path / "honeycomb.graph"
        path.write_text(GRAPH_TEXTS["honeycomb"], encoding="utf-8")
        cmd = [
            sys.executable,
            "-m",
            "ratcoord",
            "verify",
            str(path),
            "--origin",
            "1",
            "--depth",
            "20",
            "--json",
        ]
        compiled = subprocess.run(cmd, capture_output=True, check=True)
        env = dict(os.environ, RATCOORD_PURE="1")
        pure_run = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert compiled.stdout == pure_run.stdout


def _fits(kernel, *args):
    try:
        kernel(*args)
    except BudgetExceeded:
        return False
    return True


@st.composite
def small_linear_sets(draw):
    """(base, periods, lo, hi, weights) with ``weights . p >= 1`` throughout.

    Periods may be dependent, repeated, or negative in some coordinates.
    """
    dim = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim)
    weights = draw(st.tuples(*[st.integers(-1, 1)] * dim).filter(any))
    periods = draw(
        st.lists(
            vectors.filter(lambda p: sum(w * x for w, x in zip(weights, p)) >= 1),
            max_size=3,
        )
    )
    base = draw(vectors)
    lo = draw(st.tuples(*[st.integers(-4, 1)] * dim))
    hi = tuple(low + draw(st.integers(0, 4)) for low in lo)
    return base, tuple(periods), lo, hi, weights


def _brute_force_counts(base, periods, lo, hi, weights):
    # weights . p >= 1 for every period, so the coefficients of any point in
    # the box sum to at most max(weights . box) - weights . base
    top = sum(w * (h if w > 0 else low) for w, low, h in zip(weights, lo, hi))
    reach = top - sum(w * b for w, b in zip(weights, base))
    counts = Counter()
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
def test_point_counts_match_brute_force(case):
    base, periods, lo, hi, weights = case
    counts = pure.linear_point_counts(base, periods, lo, hi, weights, 10**6)
    assert counts == _brute_force_counts(base, periods, lo, hi, weights)
    assert pure.linear_points_in_box(base, periods, lo, hi, weights, 10**6) == set(
        counts
    )
    if all(x >= 0 for p in periods for x in p):
        # sign-monotone coordinates alone bound the search
        assert pure.linear_point_counts(base, periods, lo, hi, None, 10**6) == counts


@st.composite
def small_run_kernel_inputs(draw):
    """Arguments of ``accepting_run_profiles``, 0-based, with a length bound."""
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
        max_len,
    )


def _brute_force_profiles(
    num_states, sources, targets, outputs, initial, final, max_len
):
    # every walk of every length, one at a time, with no deduplication
    dim = len(outputs[0]) if outputs else 0
    profiles = set()
    for length in range(max_len + 1):
        for start in initial:
            for walk in itertools.product(range(len(sources)), repeat=length):
                state, mask, vector = start, 1 << start, (0,) * dim
                for t in walk:
                    if sources[t] != state:
                        break
                    state = targets[t]
                    mask |= 1 << state
                    vector = tuple(a + b for a, b in zip(vector, outputs[t]))
                else:
                    if state in final:
                        profiles.add((mask, length, vector))
    return profiles


@settings(max_examples=150, deadline=None)
@given(small_run_kernel_inputs())
def test_run_profiles_match_brute_force(case):
    assert pure.accepting_run_profiles(*case, 10**6) == _brute_force_profiles(*case)


def test_backend_name_exposed():
    assert ratcoord.kernel_backend in ("python", "compiled")


def test_bfs_runs_the_pure_kernel_on_either_backend():
    from ratcoord import _kernels

    assert _kernels.bfs_layer_counts is pure.bfs_layer_counts


def test_overflow_falls_back_to_pure():
    from ratcoord import _kernels

    # dimension 13 exceeds the packed enumerator; the wrapper must fall back
    base = (0,) * 13
    pts = _kernels.linear_points_in_box(base, (), base, (1,) * 13, None, 10**6)
    assert pts == {base}
