"""Fraction-free ``rank`` and the solutions read off ``_eliminate``'s pivot
rows against Gauss-Jordan over Fractions, and the row-order properties of
``_eliminate`` that the recurrence fit uses."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratcoord._exactlinalg import _eliminate, _null_vector, rank


def _echelonize(m, ncols):
    """Reduce the augmented Fraction matrix ``m`` in place; return the pivot
    columns.  The reference: normalise each pivot row, clear its column."""
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = Fraction(1, 1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return pivots


def _reference_solve(matrix, rhs):
    """``(solution, free_columns)`` of ``matrix @ x = rhs`` by Fraction
    Gauss-Jordan, free variables set to zero; None if inconsistent."""
    if not matrix:
        return ([], []) if all(b == 0 for b in rhs) else None
    ncols = len(matrix[0])
    m = [
        [Fraction(v) for v in row] + [Fraction(b)]
        for row, b in zip(matrix, rhs)
    ]
    pivots = _echelonize(m, ncols)
    for r in range(len(pivots), len(m)):
        if m[r][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = m[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    return sol, free


def _pivot_row_solve(matrix, rhs):
    """The solution of ``matrix @ x = rhs`` read off the pivot rows of
    ``_eliminate``, in the form of :func:`_reference_solve`.  Times 60 every
    drawn entry is an integer, and pivot column c of row j gives
    ``x[c] = row[-1] / row[c]``."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [
        [int(x * 60) for x in (*row, b)]
        for row, b in zip(matrix or [()] * len(rhs), rhs)
    ]
    pivots, stop = _eliminate(rows, ncols)
    if stop < len(rows):
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        sol[col] = Fraction(row[ncols], row[col])
    return sol, [c for c in range(ncols) if c not in pivots]


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


entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def linear_systems(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 5))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    matrix = draw(st.lists(row, min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return matrix, rhs


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([], []))  # empty, consistent
@example(([], [1]))  # empty, inconsistent
@example(([[0, 0], [1, 2]], [0, 3]))  # a zero row
@example(([[1, 2], [2, 4]], [1, 3]))  # inconsistent
@example(([[1, 2, 3], [0, 0, 1]], [4, 5]))  # underdetermined: free column 1
@example(([[Fraction(1, 2), Fraction(1, 3)], [2, -1]], [Fraction(5, 6), 1]))
def test_solve_matches_fraction_elimination(system):
    matrix, rhs = system
    assert _pivot_row_solve(matrix, rhs) == _reference_solve(matrix, rhs)


@st.composite
def reordered_systems(draw):
    matrix, rhs = draw(linear_systems())
    order = draw(st.permutations(range(len(matrix))))
    return matrix, rhs, order


@settings(max_examples=150, deadline=None)
@given(reordered_systems())
@example(([[0, 1], [1, 0]], [2, 3], [1, 0]))  # pivots found in the other order
@example(([[1, 2, 3], [0, 0, 1], [1, 2, 4]], [4, 5, 9], [2, 1, 0]))
def test_row_order_changes_neither_pivots_nor_solution(system):
    matrix, rhs, order = system
    expected = _reference_solve(matrix, rhs)
    reordered = [matrix[i] for i in order], [rhs[i] for i in order]
    assert _pivot_row_solve(*reordered) == expected
    rows = [[int(x * 60) for x in row] for row in matrix]  # 60 clears every denominator
    if rows:
        pivots, _ = _eliminate([rows[i] for i in order], len(rows[0]))
        assert sorted(pivots) == sorted(_eliminate(rows, len(rows[0]))[0])


@settings(max_examples=150, deadline=None)
@given(linear_systems())
@example(([[1, 1], [1, 1], [2, 2]], [1, 1, 3]))  # the third row stops
def test_stop_is_the_first_inconsistent_prefix(system):
    matrix, rhs = system
    ncols = len(matrix[0]) if matrix else 0
    rows = [[int(x * 60) for x in (*row, b)] for row, b in zip(matrix, rhs)]
    pivots, stop = _eliminate(list(rows), ncols)
    prefixes = (_reference_solve(matrix[: i + 1], rhs[: i + 1]) for i in range(len(rows)))
    first = next((i for i, x in enumerate(prefixes) if x is None), len(rows))
    assert stop == first
    consistent = [[Fraction(x) for x in row] for row in matrix[:stop]]
    assert len(pivots) == len(_echelonize(consistent, ncols))


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices())
def test_null_vector_of_every_free_column_is_in_the_kernel(matrix):
    if not matrix:
        return
    rows = [list(row) for row in matrix]
    ncols = len(rows[0])
    pivots, _ = _eliminate(rows, ncols)
    for col in set(range(ncols)) - set(pivots):
        x = _null_vector(rows, pivots, col)
        assert x[col] > 0
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in matrix)
