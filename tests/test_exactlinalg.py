"""Fraction-free rank against the Fraction elimination that ``solve`` uses."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratcoord._exactlinalg import _echelonize, rank


@st.composite
def small_integer_matrices(draw):
    ncols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, max_size=5))


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices())
@example([[1, 2], [2, 4]])
@example([[0, 0, 0], [2, 4, 6], [3, 6, 9]])
@example([[2, 3, 1], [4, 1, 3], [6, 4, 4], [1, -1, 1]])
def test_rank_matches_fraction_elimination(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    expected = len(_echelonize(rows, len(rows[0]))) if rows else 0
    assert rank(matrix) == expected
    assert rank([tuple(row) for row in matrix]) == expected
