import itertools
import json
from collections import Counter
from operator import mul, sub
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratcoord import (
    AmbiguousWitness,
    BudgetExceeded,
    DecompositionError,
    LinearSet,
    SemilinearSet,
    Unambiguous,
    build_coordination_nfa,
    check_unambiguous,
    count_representations,
    decompose_shell,
    disambiguate,
    enumerate_in_box,
    linear_set_from_json,
    linear_set_to_json,
    member,
    parikh_image,
    parse_periodic_graph,
    semilinear_from_json,
    semilinear_to_json,
    slice_counts,
    validate_decomposition,
)
from ratcoord import _kernels, semilinear
from ratcoord._exactlinalg import rank
from ratcoord.cli import DISAMBIG_MARGIN
from ratcoord.semilinear import (
    _functional_grid,
    _independent_subsets,
    _magnitude,
    _positive_functional,
    same_shell_in_box,
)
from .conftest import (
    AMBIGUOUS_EXAMPLE,
    HONEYCOMB_TEXT,
    PCU_TEXT,
    SQUARE_TEXT,
    ambiguous_example_points,
    assert_outcome,
)

A2 = AMBIGUOUS_EXAMPLE
A_FULL = SemilinearSet((LinearSet((0, 0)), A2))
OPPOSED = SemilinearSet(
    (
        LinearSet((0, 0), ((2, -1), (-1, 2))),
        LinearSet((0, 0), ((-2, 1), (1, -2))),
    )
)


RAY = SemilinearSet((LinearSet((0,), ((1,),)),))


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(  # the 3**7 - 1 grid functionals would be searched
            lambda: len(_functional_grid(7)), 14, id="functional_grid"
        ),
        pytest.param(
            lambda: count_representations(A2, (1, 2, 3)),
            ValueError("vector (1, 2, 3) has wrong dimension (expected 2)"),
            id="check_dim",
        ),
        pytest.param(  # no positive functional: the sweep's grid is capped
            lambda: member(
                SemilinearSet((LinearSet((0, 0), ((1, 0), (-1, 0), (0, 1))),)),
                (9, 9),
                budget=1,
            ),
            BudgetExceeded("box levels would span more than 64 bits"),
            id="member_sweep_budget",
        ),
        pytest.param(
            lambda: slice_counts(RAY, 1, -1),
            ValueError("y_max must be nonnegative"),
            id="slice_y_max",
        ),
        pytest.param(
            lambda: slice_counts(RAY, 0, 3),
            ValueError("coordinate index 0 out of range"),
            id="slice_index",
        ),
        pytest.param(
            lambda: slice_counts(SemilinearSet((LinearSet((-1,), ((1,),)),)), 1, 3),
            ValueError("negative coordinate-1 projection"),
            id="slice_base",
        ),
    ],
)
def test_guards(call, expected):
    assert_outcome(call, expected)


class TestConstruction:
    def test_zero_and_duplicate_periods_stripped(self):
        l = LinearSet((0, 0), ((1, 0), (0, 0), (1, 0), (0, 2)))
        assert l.periods == ((1, 0), (0, 2))

    def test_stripping_does_not_affect_equality(self):
        assert LinearSet((0,), ((2,), (2,))) == LinearSet((0,), ((2,),))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSet((0, 0), ((1,),))
        with pytest.raises(ValueError):
            SemilinearSet((LinearSet((0,)), LinearSet((0, 0))))

    def test_nonintegral_coordinates_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            LinearSet((0.5, 1.9), ((1, 0),))
        with pytest.raises(ValueError, match="integers"):
            LinearSet((0, 1), ((1, 0.7),))
        assert LinearSet((2.0, 1), ((1.0, 0),)) == LinearSet((2, 1), ((1, 0),))

    def test_certified_not_constructible(self):
        s = SemilinearSet((A2,))
        assert s.certified is False
        with pytest.raises(TypeError):
            SemilinearSet((A2,), certified=True)


class TestCountRepresentations:
    def test_paper_two_ways(self):
        assert count_representations(A2, (4, 4)) == 2

    def test_base_itself(self):
        assert count_representations(A2, (2, 2)) == 1

    def test_parity_excluded(self):
        assert count_representations(A2, (3, 2)) == 0

    def test_counts_match_brute_force(self):
        # (set, coefficient bound, box side): every coefficient tuple that
        # reaches the box [lo, hi]^dim has all its entries below the bound
        cases = [
            # every period is nonnegative with a positive coordinate, so a
            # coefficient of 9 or more leaves [-1, 8]^dim
            (A2, 9, range(-1, 9)),
            (LinearSet((0,), ((2,), (3,))), 9, range(-1, 9)),
            (LinearSet((1, 1), ((1, 2), (2, 1), (1, 1))), 9, range(-1, 9)),
            (LinearSet((0, 0), ((2, 0), (0, 2))), 9, range(-1, 9)),
            # functional (1, 1) is n1 + n2 = x + y <= 12; independent periods
            # with negative and non-integral coefficient solutions
            (LinearSet((0, 0), ((2, -1), (-1, 2))), 13, range(-6, 7)),
            # n1 = y - 4x <= 30 and n2 = y - 5x <= 36; no functional of the
            # search grid is positive on both periods
            (LinearSet((0, 0), ((1, 5), (-1, -4))), 37, range(-6, 7)),
        ]
        for l, bound, side in cases:
            brute = Counter(
                tuple(
                    b + sum(n * p[i] for n, p in zip(ns, l.periods))
                    for i, b in enumerate(l.base)
                )
                for ns in itertools.product(range(bound), repeat=len(l.periods))
            )
            for v in itertools.product(side, repeat=l.dim):
                assert count_representations(l, v) == brute[v], (l, v)

    def test_budget(self):
        l = LinearSet((0, 0), ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(BudgetExceeded):
            count_representations(l, (120, 120), budget=50)

    def test_zero_sum_periods_exceed_the_budget(self):
        # (1, -1) + (-1, 1) = 0: every member has infinitely many tuples and
        # no functional bounds the count, so the kernel's backstop trips
        l = LinearSet((0, 0), ((1, -1), (-1, 1)))
        with pytest.raises(BudgetExceeded):
            count_representations(l, (0, 0))

    def test_non_member_of_zero_sum_periods(self):
        # (1, -1) = (2, -2) / 2 is rationally reachable, not integrally, and
        # no functional bounds the counts kernel: the sweep says 0
        l = LinearSet((0, 0), ((2, -2), (-2, 2)))
        assert count_representations(l, (1, -1)) == 0
        assert count_representations(l, (1, 0)) == 0

    def test_nonintegral_vector_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            count_representations(A2, (4.5, 4))
        assert count_representations(A2, (4.0, 4)) == 2

    def test_no_periods(self):
        assert count_representations(LinearSet((3, 1)), (3, 1)) == 1
        assert count_representations(LinearSet((3, 1)), (3, 2)) == 0


class TestMember:
    def test_paper_example(self):
        assert member(A_FULL, (0, 0)) is True
        assert member(A_FULL, (1, 1)) is False
        assert member(A_FULL, (4, 4)) is True

    def test_matches_counts_on_box(self):
        for a in range(0, 7):
            for b in range(0, 7):
                expected = any(
                    count_representations(part, (a, b)) >= 1
                    for part in A_FULL.parts
                )
                assert member(A_FULL, (a, b)) == expected

    def test_nonintegral_vector_rejected(self):
        s = SemilinearSet((LinearSet((0, 0), ((1, 0),)),))
        with pytest.raises(ValueError, match="integers"):
            member(s, (1.5, 0))
        assert member(s, (1.0, 0)) is True

    def test_zero_sum_periods(self):
        # 2*(-1,0)+(1,-1)+(1,1) = 0: no coefficient bound, every point of
        # the lattice the periods generate is a member
        s = SemilinearSet([LinearSet((0, 0), ((1, -1), (1, 1), (-1, 0)))])
        line = SemilinearSet([LinearSet((0, 0), ((2, 0), (-2, 0), (0, 1)))])
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert member(s, (a, b)) is True
                assert member(line, (a, b)) == (a % 2 == 0 and b >= 0)

    def test_lattice_sweep_budget_is_in_grid_bits(self):
        # no positive functional: one sweep over the Steinitz region of
        # (0, 0) and (40, 40), a grid of well under 64 * 100 bits
        s = SemilinearSet((LinearSet((0, 0), ((1, 0), (-1, 0), (0, 1), (0, -1))),))
        assert member(s, (40, 40), budget=100) is True


class TestEnumerateInBox:
    def test_paper_set(self):
        got = enumerate_in_box(SemilinearSet((A2,)), (0, 0), (4, 4))
        assert got == {(2, 2), (2, 4), (4, 2), (4, 4), (3, 3)}

    def test_single_point(self):
        got = enumerate_in_box(SemilinearSet((LinearSet((0, 0)),)), (0, 0), (4, 4))
        assert got == {(0, 0)}

    def test_base_outside_box(self):
        assert enumerate_in_box(SemilinearSet((A2,)), (0, 0), (1, 1)) == set()

    def test_against_definition(self):
        got = enumerate_in_box(A_FULL, (0, 0), (12, 12))
        assert got == {(0, 0)} | ambiguous_example_points(12)

    def test_negative_periods(self):
        l = LinearSet((0, 0), ((1, -1), (1, 1)))
        got = enumerate_in_box(SemilinearSet((l,)), (-5, -5), (5, 5))
        expected = {
            (a + b, b - a)
            for a in range(10)
            for b in range(10)
            if abs(a + b) <= 5 and abs(b - a) <= 5
        }
        assert got == expected

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            enumerate_in_box(A_FULL, (2, 2), (1, 1))

    def test_nonintegral_box_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            enumerate_in_box(SemilinearSet((A2,)), (0, 0), (4.5, 4))

    def test_parts_without_common_functional(self):
        # each part has a positive functional, (1, 1) and (-1, -1), but no
        # functional is positive on both parts' periods, so the union is
        # swept with none: every period closed to a fixpoint in one level
        got = enumerate_in_box(OPPOSED, (-6, -6), (6, 6))
        assert got == set().union(
            *[
                enumerate_in_box(SemilinearSet((part,)), (-6, -6), (6, 6))
                for part in OPPOSED.parts
            ]
        )
        # member counts representations per part, without the sweep
        box = itertools.product(range(-6, 7), repeat=2)
        assert got == {point for point in box if member(OPPOSED, point)}
        assert (0, 0) in got and (2, -1) in got and (-2, 1) in got

    def test_dropping_a_part_changes_the_functional(self):
        # all three periods admit no positive functional, so the first part
        # is dropped for its y alone; the second part's periods then admit
        # (1, -1), under which its base lies above the box's top level and
        # must be dropped too before the grid is built
        s = SemilinearSet(
            (LinearSet((1, 0), ((-1, 0),)), LinearSet((0, 0), ((0, -2), (2, 1))))
        )
        assert enumerate_in_box(s, (-1, 1), (0, 2)) == set()

    def test_distant_base_costs_the_sweep_its_region(self):
        # the sweep's region reaches out to the base, so a far base costs
        # budget that the partial-sum kernel, which finds no box point, does
        # not need; a larger budget gives the same (empty) set
        l = LinearSet((8, -7, 11, -2), ((-2, -2, -3, 3), (2, 3, -3, 0)))
        s = SemilinearSet((l,))
        lo, hi = (-5, -4, -1, 2), (-4, 0, 2, 4)
        w = (0, 0, -1, 0)  # the positive functional found for the periods
        counts = _kernels.linear_point_counts(l.base, l.periods, lo, hi, w, 10**6)
        with pytest.raises(BudgetExceeded):
            enumerate_in_box(s, lo, hi, 10**6)
        assert enumerate_in_box(s, lo, hi, 10**7) == counts.keys()


class TestSliceCounts:
    def test_one_dimensional(self):
        s = SemilinearSet((LinearSet((0,), ((2,), (3,))),))
        assert slice_counts(s, 1, 6) == [1, 0, 1, 1, 1, 1, 1]

    def test_one_point_per_slice(self):
        s = SemilinearSet((LinearSet((2, 2, 0), ((0, 0, 1),)),))
        assert slice_counts(s, 3, 3) == [1, 1, 1, 1]

    def test_nonpositive_projection_rejected(self):
        s = SemilinearSet((LinearSet((0, 0), ((1, 0), (0, 1))),))
        with pytest.raises(ValueError, match="finite-slice"):
            slice_counts(s, 1, 4)

    def test_set_semantics_across_parts(self):
        twice = SemilinearSet(
            (LinearSet((0,), ((1,),)), LinearSet((2,), ((1,), (2,))))
        )
        assert slice_counts(twice, 1, 5) == [1, 1, 1, 1, 1, 1]

    def test_additive_for_disjoint_parts(self):
        d = disambiguate(SemilinearSet((LinearSet((0,), ((2,), (3,))),)))
        assert len(d.parts) >= 2
        total = slice_counts(d, 1, 24)
        by_part = [
            slice_counts(SemilinearSet((part,)), 1, 24) for part in d.parts
        ]
        assert total == [sum(col) for col in zip(*by_part)]


def _dot(a, b):
    return sum(map(mul, a, b))


def _smallest_ambiguous(l, w, top):
    """Smallest point by (w . point, point) with two coefficient tuples, among
    the points with w . point <= top: every tuple is counted by adding one
    period at a time, and since each period raises w, no partial sum of
    such a point is above top."""
    counts = Counter({l.base: 1})
    for period in l.periods:
        grown = Counter()
        for point, count in counts.items():
            while _dot(w, point) <= top:
                grown[point] += count
                point = tuple(map(sum, zip(point, period)))
        counts = grown
    ambiguous = [point for point, count in counts.items() if count >= 2]
    return min(ambiguous, key=lambda p: (_dot(w, p), p), default=None)


@st.composite
def functional_linear_sets(draw):
    """Small linear sets whose periods have a positive functional."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 3)
    vector = st.tuples(*[coord] * dim)
    periods = draw(st.lists(vector, min_size=1, max_size=dim + 2))
    l = LinearSet(draw(vector), tuple(periods))
    assume(_positive_functional(l.periods, dim) is not None)
    return l


class TestCheckUnambiguous:
    def test_independent_periods(self):
        cert = check_unambiguous(LinearSet((0, 0), ((1, 0), (0, 1))))
        assert isinstance(cert, Unambiguous)

    def test_paper_witness(self):
        cert = check_unambiguous(A2)
        assert cert == AmbiguousWitness((4, 4))

    def test_one_dimensional_witness(self):
        cert = check_unambiguous(LinearSet((0,), ((2,), (3,))))
        assert cert == AmbiguousWitness((6,))

    def test_witness_has_two_representations(self):
        cert = check_unambiguous(A2)
        assert count_representations(A2, cert.point) >= 2

    @settings(max_examples=150, deadline=None)
    @given(functional_linear_sets())
    @example(LinearSet((2, 1), ((3, 0), (-2, 2), (3, 1))))  # witness (20, 7)
    @example(LinearSet((0, 0, 0), ((1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 2, 2))))
    # witness (24, 159, 63), 86 representations: over the default node
    # budget unless periods with a negative coordinate are added first
    @example(LinearSet((0, 0, 0), ((0, 3, 3), (1, 2, -2), (-2, 3, 1), (3, 2, 1), (0, 0, 1))))
    def test_exact_against_counts(self, l):
        cert = check_unambiguous(l)
        independent = rank(l.periods) == len(l.periods)
        assert isinstance(cert, Unambiguous) == independent
        if independent:
            return
        assert count_representations(l, cert.point) >= 2
        if len(l.periods) - rank(l.periods) == 1:
            w = _positive_functional(l.periods, l.dim)
            assert _smallest_ambiguous(l, w, _dot(w, cert.point)) == cert.point


class TestValidateDecomposition:
    def test_paper_decomposition(self):
        candidate = SemilinearSet(
            (
                LinearSet((2, 2), ((2, 0), (0, 2))),
                LinearSet((3, 3), ((2, 0), (0, 2))),
            )
        )
        assert validate_decomposition(
            SemilinearSet((A2,)), candidate, (0, 0), (20, 20)
        )

    def test_overlap_detected(self):
        candidate = SemilinearSet(
            (
                LinearSet((2, 2), ((2, 0), (0, 2))),
                LinearSet((2, 2), ((1, 1),)),
            )
        )
        assert not validate_decomposition(
            SemilinearSet((A2,)), candidate, (0, 0), (20, 20)
        )

    def test_missing_points_detected(self):
        candidate = SemilinearSet((LinearSet((2, 2), ((2, 0), (0, 2))),))
        assert not validate_decomposition(
            SemilinearSet((A2,)), candidate, (0, 0), (20, 20)
        )

    def test_ambiguous_candidate_detected(self):
        # equal extension but the single part is ambiguous
        assert not validate_decomposition(
            SemilinearSet((A2,)), SemilinearSet((A2,)), (0, 0), (20, 20)
        )

    def test_nonintegral_box_rejected(self):
        s = SemilinearSet((A2,))
        with pytest.raises(ValueError, match="integers"):
            validate_decomposition(s, s, (0.5, 0), (6, 6))

    def test_parts_without_common_functional(self):
        # OPPOSED's parts share only the origin: the second part without it
        # is L((-2, 1); P) plus L((1, -2); (1, -2)), P its periods
        first, second = OPPOSED.parts
        disjoint = SemilinearSet(
            (
                first,
                LinearSet((-2, 1), second.periods),
                LinearSet((1, -2), ((1, -2),)),
            )
        )
        assert validate_decomposition(OPPOSED, disjoint, (-6, -6), (6, 6))
        assert not validate_decomposition(OPPOSED, OPPOSED, (-6, -6), (6, 6))


class TestDisambiguate:
    def test_paper_example(self):
        d = disambiguate(SemilinearSet((A2,)))
        assert d.certified
        assert len(d.parts) >= 2
        got = enumerate_in_box(d, (0, 0), (20, 20))
        assert got == ambiguous_example_points(20)

    def test_one_dimensional(self):
        d = disambiguate(SemilinearSet((LinearSet((0,), ((2,), (3,))),)))
        assert d.certified
        got = enumerate_in_box(d, (0,), (50,))
        assert got == {(0,)} | {(k,) for k in range(2, 51)}

    def test_already_unambiguous(self):
        s = SemilinearSet((LinearSet((0, 0), ((1, 0), (0, 1))),))
        d = disambiguate(s)
        assert d.certified
        assert d.parts == s.parts

    def test_empty(self):
        d = disambiguate(SemilinearSet(()))
        assert d.certified and d.parts == ()

    def test_candidates_go_through_the_traced_kernel(self, monkeypatch):
        # ratbench reads the greedy's candidate count from the calls of
        # _kernels.linear_points_in_box; it would read 0 if they stopped
        kernel = _kernels.linear_points_in_box
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "linear_points_in_box", counted)
        assert disambiguate(SemilinearSet((A2,))).certified
        assert len(calls) > 0

    def test_one_grid_per_call(self, monkeypatch):
        # the input is swept into the greedy's own grid, not into a second one
        grid_class = _kernels.BoxGrid
        grids = []

        def counted(*args):
            grids.append(args)
            return grid_class(*args)

        monkeypatch.setattr(_kernels, "BoxGrid", counted)
        assert disambiguate(SemilinearSet((A2,))).certified
        assert len(grids) == 1

    def test_each_base_is_indexed_once(self, monkeypatch):
        # one index when the input's base is swept, one per chosen base: the
        # greedy reads its steps and cones off that index, not off points
        index, calls = _kernels.BoxGrid.index, []

        def counted(grid, point):
            calls.append(point)
            return index(grid, point)

        monkeypatch.setattr(_kernels.BoxGrid, "index", counted)
        d = disambiguate(SemilinearSet((A2,)))
        assert len(calls) == 1 + len(d.parts)

    def test_part_cap(self):
        # the diagonal defeats the fast path and takes the diagonal points;
        # every other point of the block is a cone of its own
        block = [LinearSet((i, j)) for i in range(33) for j in range(33)]
        s = SemilinearSet((*block, LinearSet((0, 0), ((1, 1),))))
        with pytest.raises(DecompositionError, match="greedy cover exceeded 1000 parts"):
            disambiguate(s)

    def test_overlapping_independent_parts_are_split(self):
        # each part has independent periods, but both hold the origin, so
        # their popcounts add up to more than the union's
        s = SemilinearSet(
            (LinearSet((0, 0), ((1, 0),)), LinearSet((0, 0), ((0, 1),)))
        )
        d = disambiguate(s, box_radius=3)
        assert d.parts != s.parts
        assert validate_decomposition(s, d, (-3, -3), (3, 3))

    def test_certified_in_the_grid_decoding_only_bases(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the counts kernel was called")

        monkeypatch.setattr(_kernels, "linear_point_counts", forbidden)
        decode, decoded = _kernels.BoxGrid.decode, []

        def counted(grid, layers):
            for point in decode(grid, layers):
                decoded.append(point)
                yield point

        monkeypatch.setattr(_kernels.BoxGrid, "decode", counted)
        d = disambiguate(SemilinearSet((A2,)))
        assert d.certified
        assert decoded == [part.base for part in d.parts]
        # the fast path decodes nothing
        s = SemilinearSet((LinearSet((0, 0), ((1, 0), (0, 1))),))
        assert disambiguate(s).parts == s.parts
        assert decoded == [part.base for part in d.parts]

    def test_parts_certified_unambiguous(self):
        d = disambiguate(SemilinearSet((A2,)))
        for part in d.parts:
            assert isinstance(check_unambiguous(part), Unambiguous)

    def test_generalization_radius_times_two(self):
        # certification box has radius 8 by default here; re-check at 16
        s = SemilinearSet((A2,))
        d = disambiguate(s, box_radius=8)
        wide = enumerate_in_box(s, (-16, -16), (16, 16))
        assert enumerate_in_box(d, (-16, -16), (16, 16)) == wide

    def test_period_universe_too_large(self):
        # 100 pairwise independent periods give 1 + 100 + 4950 subsets
        l = LinearSet((0, 0), tuple((i, 1) for i in range(-50, 50)))
        with pytest.raises(DecompositionError, match="period universe too large"):
            disambiguate(SemilinearSet((l,)))

    def test_period_universe_too_large_fails_cheaply(self, monkeypatch):
        # 23 periods in dimension 4 have 10,902 nonempty subsets of at most
        # 4; the 5,001st independent one raises before the rest are ranked
        universe = sorted(itertools.product(range(-1, 2), repeat=3))[:23]
        universe = [(*p, 1) for p in universe]
        combinations = sum(
            len(list(itertools.combinations(universe, k))) for k in range(1, 5)
        )
        calls = []

        def counted(vectors):
            calls.append(None)
            return rank(vectors)

        monkeypatch.setattr(semilinear, "rank", counted)
        with pytest.raises(DecompositionError, match="period universe too large"):
            _independent_subsets(universe, 4)
        assert 5000 <= len(calls) < combinations

    def test_subsets_largest_first(self):
        universe = [(0, 1), (1, 0), (1, 1)]
        assert _independent_subsets(universe, 2) == [
            ((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1)),
            ((0, 1),), ((1, 0),), ((1, 1),), (),
        ]

    def test_budget_failure_is_explicit(self):
        with pytest.raises((DecompositionError, BudgetExceeded)):
            disambiguate(SemilinearSet((A2,)), budget=20)

    def test_no_functional_fails_before_any_grid(self):
        # at budget 1 this set's grid would raise BudgetExceeded, so the
        # functional is checked before the grid is built
        opposed = SemilinearSet((LinearSet((0, 0), ((1, 0), (-1, 0))),))
        with pytest.raises(DecompositionError, match="no positive functional"):
            disambiguate(opposed, budget=1)

    def test_cone_stepping_past_the_box(self):
        # period (2, 1) takes the first part's base (2, -1) to (4, 0), outside
        # the box of radius 3, so the greedy search must still try it
        s = SemilinearSet(
            (LinearSet((1, 1), ((2, 1), (1, 1))), LinearSet((2, -1), ((-1, 2),)))
        )
        d = disambiguate(s, box_radius=3)
        assert d.parts == (
            LinearSet((2, -1), ((-1, 2), (2, 1))),
            LinearSet((2, 2), ((1, 1),)),
        )


class TestDecomposeShell:
    # the image of the chain net: the cells x within y steps
    CHAIN = SemilinearSet((LinearSet((0, 0), ((-1, 1), (0, 1), (1, 1))),))
    BOX = (-12, -12), (12, 12)

    def test_chain_shell(self):
        # the shell {(x, |x|)}: two rays, the smaller period's first
        shell = decompose_shell(self.CHAIN, 6)
        assert shell.certified
        assert shell.parts == (
            LinearSet((0, 0), ((-1, 1),)),
            LinearSet((1, 1), ((1, 1),)),
        )
        assert same_shell_in_box(self.CHAIN, shell, *self.BOX, 10**6)
        assert not same_shell_in_box(self.CHAIN, self.CHAIN, *self.BOX, 10**6)

    @pytest.mark.parametrize(
        "text,sweeps", [(SQUARE_TEXT, 4), (PCU_TEXT, 8)], ids=["sql", "pcu"]
    )
    def test_sweeps_only_cones_that_can_win(self, text, sweeps, monkeypatch):
        # one sweep per part: every later candidate's bound loses to the
        # first admissible cone (sweeping every candidate took 25 and 125)
        image = _corpus_image(text, 1)
        kernel, calls = _kernels.linear_points_in_box, []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "linear_points_in_box", counted)
        shell = decompose_shell(image, _magnitude(image.parts) + DISAMBIG_MARGIN)
        assert len(shell.parts) == sweeps
        assert len(calls) == sweeps

    def test_empty_image(self):
        empty = SemilinearSet(())
        assert decompose_shell(empty, 4).parts == ()
        assert same_shell_in_box(empty, empty, *self.BOX, 10**6)

    def test_functional_other_than_e_y_is_rejected(self):
        # A2's periods take the functional (1, 1)
        with pytest.raises(DecompositionError, match="e_y"):
            decompose_shell(SemilinearSet((A2,)), 8)
        with pytest.raises(DecompositionError, match="e_y"):
            same_shell_in_box(SemilinearSet((A2,)), A_FULL, *self.BOX, 10**6)


def _reference_cover(s, radius):
    """The greedy cover over tuple sets, one counts-kernel call per candidate.

    Returns the parts that disambiguate chooses, uncertified, or the input's
    parts when they are independent and certify as they stand.
    """
    parts = tuple(dict.fromkeys(s.parts))
    dim = parts[0].dim
    radius = max(radius, _magnitude(parts) + 1)
    lo, hi = (-radius,) * dim, (radius,) * dim
    universe = sorted({p for part in parts for p in part.periods})
    w = _positive_functional(tuple(universe), dim) if universe else (0,) * dim
    points = enumerate_in_box(s, lo, hi)
    if all(rank(part.periods) == len(part.periods) for part in parts):
        if validate_decomposition(s, SemilinearSet(parts), lo, hi):
            return parts
    uncovered, chosen = set(points), []
    for base in sorted(points, key=lambda x: (sum(map(mul, w, x)), x)):
        if base not in uncovered:
            continue
        cones = []
        for periods in _independent_subsets(universe, dim):
            cone = set(_kernels.linear_point_counts(base, periods, lo, hi, w, 10**6))
            if cone <= uncovered:
                cones.append(((-len(cone), len(periods), periods), cone))
        (_, _, periods), cone = min(cones)
        chosen.append(LinearSet(base, periods))
        uncovered -= cone
    return tuple(chosen)


def _corpus_image(text, target):
    """The Parikh image of a net's coordination automaton from origin 1."""
    return parikh_image(build_coordination_nfa(parse_periodic_graph(text), 1, target))


def _reference_shell(image, radius):
    """The shell cover over tuple sets: the minimum over every admissible
    cone, one counts-kernel call per candidate.

    The shell is I minus (I + e_y) of the image's box points; the
    candidates are all subsets of at most d - 1 periods whose cell parts are
    independent.  Returns the parts that decompose_shell chooses, uncertified.
    """
    parts = tuple(dict.fromkeys(image.parts))
    dim = parts[0].dim
    radius = max(radius, _magnitude(parts) + 1)
    lo, hi = (-radius,) * dim, (radius,) * dim
    e_y = (0,) * (dim - 1) + (1,)
    points = enumerate_in_box(image, lo, hi)
    uncovered = {x for x in points if tuple(map(sub, x, e_y)) not in points}
    universe = sorted({p for part in parts for p in part.periods})
    subsets = [
        combo
        for size in range(dim)
        for combo in itertools.combinations(universe, size)
        if rank([p[:-1] for p in combo]) == size
    ]
    chosen = []
    for base in sorted(uncovered, key=lambda x: (x[-1], x)):
        if base not in uncovered:
            continue
        cones = []
        for periods in subsets:
            cone = set(_kernels.linear_point_counts(base, periods, lo, hi, e_y, 10**6))
            if cone <= uncovered:
                cones.append(((-len(cone), len(periods), periods), cone))
        (_, _, periods), cone = min(cones)
        chosen.append(LinearSet(base, periods))
        uncovered -= cone
    return tuple(chosen)


def _same_cover(s, radius):
    got = disambiguate(s, box_radius=radius).parts
    assert got == _reference_cover(s, radius)
    # the counts kernel certifies what disambiguate certified in its grid
    r = max(radius, _magnitude(s.parts) + 1)
    assert validate_decomposition(s, SemilinearSet(got), (-r,) * s.dim, (r,) * s.dim)


@st.composite
def sets_with_functional(draw):
    """(set, radius): two or three parts in dims 1-3 with a positive functional.

    The functional is drawn as a unit vector or as any other vector in
    {-1, 0, 1}^d.  The parts draw their periods from a shared pool of
    vectors it advances, so they overlap and their periods may be dependent.
    """
    dim = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim)
    if draw(st.booleans()):
        axis = draw(st.integers(0, dim - 1))
        weights = tuple(int(i == axis) for i in range(dim))
    else:
        weights = draw(st.tuples(*[st.integers(-1, 1)] * dim).filter(any))
    pool = draw(
        st.lists(
            vectors.filter(lambda p: sum(map(mul, weights, p)) >= 1),
            min_size=1,
            max_size=4,
        )
    )
    periods = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple)
    bases = st.tuples(*[st.integers(-1, 1)] * dim)
    parts = draw(st.lists(st.builds(LinearSet, bases, periods), min_size=2, max_size=3))
    return SemilinearSet(tuple(parts)), draw(st.integers(2, 4))


class TestGreedyMatchesTupleSets:
    @settings(max_examples=100, deadline=2000)
    @given(sets_with_functional())
    @example((SemilinearSet((A2,)), 4))  # functional (1, 1)
    @example(  # unit functional, cells on x
        (
            SemilinearSet(
                (
                    LinearSet((0, 1), ((1, 1), (-1, 1), (0, 2))),
                    LinearSet((1, 0), ((2, 1), (-2, 1))),
                )
            ),
            4,
        )
    )
    @example(  # unit functional, two cell axes
        (
            SemilinearSet(
                (
                    LinearSet((0, 0, 0), ((1, 0, 1), (0, 1, 1), (-1, -1, 1))),
                    LinearSet((0, 0, 1), ((1, 0, 1), (0, 0, 2))),
                )
            ),
            3,
        )
    )
    @example(  # the first admissible cone, ((1, 2), (2, 1)) at (1, -1), is cut
        # by the box's x bound to 4 of its 9 points, so ((-1, 1),) with 5
        # must still be swept
        (
            SemilinearSet(
                (
                    LinearSet((1, -1), ((-1, 1),)),
                    LinearSet((1, -1), ((2, 1), (1, 2))),
                )
            ),
            2,
        )
    )
    def test_drawn_sets(self, case):
        _same_cover(*case)

    @pytest.mark.parametrize("target", [1, 2])
    def test_frozen_images(self, target):
        path = Path(__file__).resolve().parents[1] / "ratbench" / "inputs"
        with open(path / f"4off_target{target}.json", encoding="utf-8") as handle:
            image = semilinear_from_json(json.load(handle))
        _same_cover(image, _magnitude(image.parts) + 8)


@st.composite
def shell_images(draw):
    """(image, radius): one to three parts in dims 2-3, each with the
    waiting period e_y, whose periods all raise the last coordinate, so
    that e_y is the functional, as on a coordination image."""
    dim = draw(st.integers(2, 3))
    e_y = (0,) * (dim - 1) + (1,)
    cells = [st.integers(-2, 2)] * (dim - 1)
    pool = draw(st.lists(st.tuples(*cells, st.integers(1, 2)), min_size=1, max_size=4))
    periods = st.lists(st.sampled_from(pool), max_size=3).map(lambda ps: (*ps, e_y))
    bases = st.tuples(*[st.integers(-1, 1)] * (dim - 1), st.integers(0, 1))
    parts = draw(st.lists(st.builds(LinearSet, bases, periods), min_size=1, max_size=3))
    return SemilinearSet(tuple(parts)), draw(st.integers(2, 4))


class TestShellMatchesTupleSets:
    @pytest.mark.parametrize(
        "text,targets",
        [(SQUARE_TEXT, 1), (HONEYCOMB_TEXT, 2), (PCU_TEXT, 1)],
        ids=["sql", "hcb", "pcu"],
    )
    def test_corpus_images(self, text, targets):
        for target in range(1, targets + 1):
            image = _corpus_image(text, target)
            r = _magnitude(image.parts) + DISAMBIG_MARGIN
            assert decompose_shell(image, r).parts == _reference_shell(image, r)

    @settings(max_examples=100, deadline=2000)
    @given(shell_images())
    def test_drawn_images(self, case):
        assert decompose_shell(*case).parts == _reference_shell(*case)


class TestRepresentationConsistency:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-2, 3), st.integers(1, 3)),
            min_size=0,
            max_size=3,
        ),
        st.tuples(st.integers(-2, 6), st.integers(-2, 8)),
    )
    def test_member_equals_some_count(self, period_list, v):
        # periods with strictly positive second coordinate keep searches finite
        parts = (
            LinearSet((0, 0), tuple(period_list)),
            LinearSet((1, 2), tuple(period_list)),
        )
        s = SemilinearSet(parts)
        expected = any(count_representations(p, v) >= 1 for p in parts)
        assert member(s, v) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=3
        ).map(lambda ps: tuple(p for p in ps if p != (0, 0)))
    )
    def test_independent_periods_unique(self, periods):
        from ratcoord._exactlinalg import rank

        if rank(periods) != len(periods):
            return
        l = LinearSet((0, 0), periods)
        for a in range(-4, 7):
            for b in range(-4, 7):
                assert count_representations(l, (a, b), budget=200_000) <= 1


class TestJson:
    def test_linear_round_trip(self):
        data = linear_set_to_json(A2)
        assert data == {"base": [2, 2], "periods": [[2, 0], [1, 1], [0, 2]]}
        assert linear_set_from_json(data) == A2

    def test_semilinear_round_trip(self):
        d = disambiguate(SemilinearSet((A2,)))
        data = semilinear_to_json(d)
        assert data["certified"] is True
        back = semilinear_from_json(data)
        assert back.parts == d.parts
        assert back.certified is True

    def test_missing_certified_is_false(self):
        assert semilinear_from_json({"parts": []}).certified is False

    @pytest.mark.parametrize("certified", ["false", 1, [0]], ids=["string", "int", "list"])
    def test_non_boolean_certified_rejected(self, certified):
        data = {"parts": [linear_set_to_json(A2)], "certified": certified}
        with pytest.raises(ValueError, match="malformed semilinear set JSON: non-boolean"):
            semilinear_from_json(data)
