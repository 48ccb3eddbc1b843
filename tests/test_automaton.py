import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcoord import (
    BudgetExceeded,
    CoverVertex,
    LinearSet,
    VectorNFA,
    bfs_coordination,
    build_coordination_nfa,
    cumulative_counts,
    enumerate_in_box,
    member,
    parikh_image,
    run_parikh_oracle,
    slice_counts,
)
from ratcoord import _kernels, automaton, parse_periodic_graph
from .conftest import SQUARE_TEXT, assert_outcome, cover_distances

SQUARE_NFA = build_coordination_nfa(parse_periodic_graph(SQUARE_TEXT), 1, 1)
NETS = Path(__file__).resolve().parents[1] / "ratbench" / "nets"


class TestVectorNFA:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorNFA(2, 1, frozenset({2}), frozenset({1}), ())
        with pytest.raises(ValueError):
            VectorNFA(2, 1, frozenset({1}), frozenset({1}), ((1, (1,), 1),))
        with pytest.raises(ValueError):
            VectorNFA(2, 1, frozenset({1}), frozenset({1}), ((1, (1, 0), 2),))

    def test_distinct_transitions_collapse_repeats(self):
        a = VectorNFA(
            1, 1, frozenset({1}), frozenset({1}),
            ((1, (1,), 1), (1, (1,), 1)),
        )
        assert a.distinct_transitions == ((1, (1,), 1),)

    def test_nonintegral_output_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            VectorNFA(1, 1, frozenset({1}), frozenset({1}), ((1, (0.7,), 1),))
        a = VectorNFA(1, 1, frozenset({1}), frozenset({1}), ((1, (2.0,), 1),))
        assert a.transitions == ((1, (2,), 1),)


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(
            lambda: VectorNFA(0, 1, (), (), ()),
            ValueError("out_dim must be positive"),
            id="out_dim",
        ),
        pytest.param(
            lambda: VectorNFA(1, 0, (), (), ()),
            ValueError("num_states must be positive"),
            id="num_states",
        ),
        pytest.param(  # VectorNFA itself would name a state, not an orbit
            lambda: build_coordination_nfa(parse_periodic_graph(SQUARE_TEXT), 1, 2),
            ValueError("orbit index 2 out of range"),
            id="orbit",
        ),
        pytest.param(
            lambda: run_parikh_oracle(SQUARE_NFA, -1),
            ValueError("max_len must be nonnegative"),
            id="max_len",
        ),
        pytest.param(
            lambda: parikh_image(SQUARE_NFA),
            BudgetExceeded("more than 0 elementary circuits"),
            id="circuit_cap",
        ),
        pytest.param(  # the one-state case above never enters the search loop
            lambda: parikh_image(
                VectorNFA(2, 2, {1}, {2}, ((1, (1, 1), 2), (2, (-1, 1), 1)))
            ),
            BudgetExceeded("run enumeration exceeded 1 states"),
            id="run_search_budget",
        ),
    ],
)
def test_guards(call, expected, monkeypatch):
    # both are read by parikh_image only
    monkeypatch.setattr(automaton, "PARIKH_CYCLE_CAP", 0)
    monkeypatch.setattr(automaton, "PARIKH_MAX_ENTRIES", 1)
    assert_outcome(call, expected)


class TestBuildCoordinationNfa:
    def test_square(self, square):
        a = build_coordination_nfa(square, 1, 1)
        assert a.out_dim == 3
        assert a.num_states == 1
        assert a.initial == frozenset({1}) and a.final == frozenset({1})
        assert sorted(a.transitions) == [
            (1, (-1, 0, 1), 1),
            (1, (0, -1, 1), 1),
            (1, (0, 0, 1), 1),
            (1, (0, 1, 1), 1),
            (1, (1, 0, 1), 1),
        ]

    def test_honeycomb(self, honeycomb):
        a = build_coordination_nfa(honeycomb, 1, 2)
        assert a.num_states == 2
        assert len(a.transitions) == 8
        assert a.initial == frozenset({1}) and a.final == frozenset({2})
        assert (1, (0, 0, 1), 2) in a.transitions
        assert (2, (0, 0, 1), 1) in a.transitions  # reversed direction
        assert (2, (-1, 0, 1), 1) in a.transitions
        assert (1, (0, 0, 1), 1) in a.transitions  # waiting loop
        assert (2, (0, 0, 1), 2) in a.transitions

    def test_edgeless(self, edgeless):
        a = build_coordination_nfa(edgeless, 1, 1)
        assert a.transitions == ((1, (0, 1), 1),)


class TestRunParikhOracle:
    def test_self_loop(self):
        a = VectorNFA(2, 1, frozenset({1}), frozenset({1}), ((1, (0, 1), 1),))
        assert run_parikh_oracle(a, 2) == {(0, 0), (0, 1), (0, 2)}

    def test_single_transition(self):
        a = VectorNFA(3, 2, frozenset({1}), frozenset({2}), ((1, (1, 0, 1), 2),))
        assert run_parikh_oracle(a, 3) == {(1, 0, 1)}

    def test_square_lattice_ball(self, square):
        a = build_coordination_nfa(square, 1, 1)
        expected = {
            (x1, x2, y)
            for y in range(3)
            for x1 in range(-2, 3)
            for x2 in range(-2, 3)
            if abs(x1) + abs(x2) <= y
        }
        assert run_parikh_oracle(a, 2) == expected

    def test_empty_run_needs_initial_final_overlap(self):
        loop = ((1, (1,), 1),)
        both = VectorNFA(1, 2, frozenset({1}), frozenset({1}), loop)
        assert (0,) in run_parikh_oracle(both, 2)
        disjoint = VectorNFA(1, 2, frozenset({1}), frozenset({2}), loop)
        assert run_parikh_oracle(disjoint, 4) == set()

    def test_no_transitions_gives_the_zero_vector(self):
        a = VectorNFA(2, 1, frozenset({1}), frozenset({1}), ())
        assert run_parikh_oracle(a, 3) == {(0, 0)}

    def test_budget(self, honeycomb):
        a = build_coordination_nfa(honeycomb, 1, 1)
        with pytest.raises(BudgetExceeded):
            run_parikh_oracle(a, 12, max_entries=100)

    def test_runs_of_different_lengths_share_a_state(self):
        # 41 vectors, each first reached by its shortest run; keyed by
        # length as well, the search would hold 861 states
        loops = ((1, (0,), 1), (1, (1,), 1))
        a = VectorNFA(1, 1, frozenset({1}), frozenset({1}), loops)
        assert run_parikh_oracle(a, 40, max_entries=60) == {(k,) for k in range(41)}


class TestParikhImage:
    def test_self_loop_equals_linear_set(self):
        a = VectorNFA(2, 1, frozenset({1}), frozenset({1}), ((1, (0, 1), 1),))
        image = parikh_image(a)
        got = enumerate_in_box(image, (0, 0), (0, 6))
        assert got == {(0, k) for k in range(7)}

    def test_single_run_no_cycles(self):
        a = VectorNFA(2, 2, frozenset({1}), frozenset({2}), ((1, (1, 1), 2),))
        image = parikh_image(a)
        assert [(p.base, p.periods) for p in image.parts] == [((1, 1), ())]

    def test_no_transitions_gives_the_zero_vector(self):
        a = VectorNFA(2, 1, frozenset({1}), frozenset({1}), ())
        assert parikh_image(a).parts == (LinearSet((0, 0)),)

    def test_no_accepting_runs(self):
        a = VectorNFA(1, 2, frozenset({1}), frozenset({2}), ((2, (1,), 2),))
        assert parikh_image(a).parts == ()

    def test_square_slice_counts(self, square):
        image = parikh_image(build_coordination_nfa(square, 1, 1))
        assert slice_counts(image, 3, 6) == [1, 5, 13, 25, 41, 61, 85]

    def test_square_matches_bfs_cumulative(self, square):
        image = parikh_image(build_coordination_nfa(square, 1, 1))
        cumulative = cumulative_counts(bfs_coordination(square, 1, 6))
        assert slice_counts(image, 3, 6) == cumulative


@pytest.mark.parametrize("net", sorted(p.stem for p in NETS.glob("*.graph")))
def test_oracle_matches_image_kernel_on_corpus_nets(net):
    # the oracle's kernel against the vectors of the image kernel's profiles
    g = parse_periodic_graph((NETS / f"{net}.graph").read_text(encoding="utf-8"))
    for target in range(1, g.num_orbits + 1):
        nfa = build_coordination_nfa(g, 1, target)
        args = automaton._kernel_args(nfa)
        profiles = _kernels.accepting_run_profiles(*args, 8, 5_000_000)
        assert run_parikh_oracle(nfa, 8) == {v for _, v in profiles}, (net, target)


class TestOracleEquivalence:
    """The central soundness/completeness harness.

    Sound: every oracle vector is a member of the constructed image.
    Complete: every image member in the oracle's bounding box appears in an
    oracle run of a slightly larger length (and exactly, for automata whose
    run length equals the last output coordinate).
    """

    LENGTH = 8

    def _box_of(self, vectors, dim):
        lo = tuple(min((v[i] for v in vectors), default=0) for i in range(dim))
        hi = tuple(max((v[i] for v in vectors), default=0) for i in range(dim))
        return lo, hi

    @pytest.mark.parametrize("idx", range(6))
    def test_small_nfas(self, small_nfas, idx):
        name, nfa, length_is_last = small_nfas[idx]
        oracle = run_parikh_oracle(nfa, self.LENGTH)
        image = parikh_image(nfa)
        for vector in sorted(oracle):
            assert member(image, vector), (name, vector)
        if not oracle:
            assert image.parts == ()
            return
        lo, hi = self._box_of(oracle, nfa.out_dim)
        members = enumerate_in_box(image, lo, hi)
        if length_is_last:
            capped = {v for v in members if v[-1] <= self.LENGTH}
            assert capped == oracle, name
        else:
            slack_oracle = run_parikh_oracle(nfa, 2 * self.LENGTH + 2)
            assert members <= slack_oracle, name

    @pytest.mark.parametrize(
        "target,graph_name", [(1, "square"), (1, "honeycomb"), (2, "honeycomb")]
    )
    def test_coordination_nfas(self, graphs, graph_name, target):
        nfa = build_coordination_nfa(graphs[graph_name], 1, target)
        oracle = run_parikh_oracle(nfa, self.LENGTH)
        image = parikh_image(nfa)
        lo, hi = self._box_of(oracle, nfa.out_dim)
        members = {
            v
            for v in enumerate_in_box(image, lo, hi)
            if v[-1] <= self.LENGTH
        }
        assert members == oracle


class TestCoordinationInvariants:
    def test_upward_closure(self, honeycomb):
        image = parikh_image(build_coordination_nfa(honeycomb, 1, 2))
        for v in sorted(enumerate_in_box(image, (-3, -3, 0), (3, 3, 6))):
            up = v[:-1] + (v[-1] + 1,)
            assert member(image, up), v

    def test_periods_advance_length_coordinate(self, graphs):
        for name in ("square", "honeycomb", "chain", "three_ring"):
            g = graphs[name]
            for target in range(1, g.num_orbits + 1):
                image = parikh_image(build_coordination_nfa(g, 1, target))
                for part in image.parts:
                    for period in part.periods:
                        assert period[-1] >= 1

    def test_membership_equals_distance_bound(self, honeycomb):
        depth = 6
        distances = cover_distances(honeycomb, CoverVertex(1, (0, 0)), depth + 1)
        images = {
            t: parikh_image(build_coordination_nfa(honeycomb, 1, t))
            for t in (1, 2)
        }
        for x1 in range(-3, 4):
            for x2 in range(-3, 4):
                for t in (1, 2):
                    v = CoverVertex(t, (x1, x2))
                    for y in range(depth + 1):
                        expected = v in distances and distances[v] <= y
                        got = member(images[t], (x1, x2, y))
                        assert got == expected, (v, y)

    def test_orbit_sum_equals_bfs_cumulative(self, graphs):
        for name in ("square", "honeycomb", "ladder", "three_ring"):
            g = graphs[name]
            depth = 8
            cumulative = cumulative_counts(bfs_coordination(g, 1, depth))
            total = [0] * (depth + 1)
            for target in range(1, g.num_orbits + 1):
                image = parikh_image(build_coordination_nfa(g, 1, target))
                for y, c in enumerate(slice_counts(image, g.dim + 1, depth)):
                    total[y] += c
            assert total == cumulative, name


@st.composite
def random_nfa(draw):
    num_states = draw(st.integers(1, 3))
    out_dim = draw(st.integers(1, 2))
    n_trans = draw(st.integers(0, 3))
    transitions = []
    for _ in range(n_trans):
        source = draw(st.integers(1, num_states))
        target = draw(st.integers(1, num_states))
        output = tuple(draw(st.integers(-1, 1)) for _ in range(out_dim))
        transitions.append((source, output, target))
    initial = draw(st.sets(st.integers(1, num_states), min_size=1, max_size=num_states))
    final = draw(st.sets(st.integers(1, num_states), max_size=num_states))
    return VectorNFA(
        out_dim,
        num_states,
        frozenset(initial),
        frozenset(final),
        tuple(transitions),
    )


class TestRandomNfaEquivalence:
    """Sound and complete on random automata, both directions witnessed."""

    @settings(max_examples=30, deadline=None)
    @given(random_nfa())
    def test_oracle_vectors_are_members(self, nfa):
        image = parikh_image(nfa)
        bound = nfa.num_states * (len(nfa.distinct_transitions) + 1)
        for vector in run_parikh_oracle(nfa, min(bound, 10)):
            assert member(image, vector)

    @settings(max_examples=30, deadline=None)
    @given(random_nfa())
    def test_members_have_witnessing_runs(self, nfa):
        # base runs are at most num_states*(num_states-1) long, within
        # `bound` for the at most 3 states drawn here whenever a transition
        # exists (with none, only the empty run is accepted), and every
        # period comes from a cycle of at most num_states transitions, so
        # adding up to `slack` periods keeps witnesses within a computable
        # length
        slack = 2
        image = parikh_image(nfa)
        if not image.parts:
            return
        bound = nfa.num_states * (len(nfa.distinct_transitions) + 1)
        oracle = run_parikh_oracle(nfa, bound + slack * nfa.num_states)
        for part in image.parts:
            for combo in itertools.product(
                range(slack + 1), repeat=len(part.periods)
            ):
                if sum(combo) > slack:
                    continue
                vector = tuple(
                    b
                    + sum(
                        n * p[i] for n, p in zip(combo, part.periods)
                    )
                    for i, b in enumerate(part.base)
                )
                assert vector in oracle, (part, combo)
