"""Small exact linear-algebra helpers over the rationals.

No floating point anywhere.  One fraction-free elimination by rows,
:func:`_eliminate`, serves :func:`rank`, :func:`solve`, the recurrence fit
of ``genfunc.fit_rational`` and ``semilinear.check_unambiguous``; the last
two read an integer kernel vector off its pivot rows (:func:`_null_vector`).
Only :func:`solve` builds Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integral(values, what: str = "coordinates") -> tuple[int, ...]:
    """``values`` as ints; ValueError if some ``int(x) != x`` (2.0 passes)."""
    values = tuple(values)
    out = tuple(map(int, values))
    if out != values:
        raise ValueError(f"{what} must be integers, got {values}")
    return out


def _clear(row, pivot, col):
    """Integer combination of ``row`` and ``pivot`` that is zero at ``col``,
    divided by the gcd of its entries."""
    a, b = pivot[col], row[col]
    row = [a * x - b * y for x, y in zip(row, pivot)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows, ncols) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, by rows, in place.

    Each row is reduced by the pivot rows before it; its first nonzero
    column among the first ``ncols`` becomes a pivot and is cleared from
    them.  Row j ends up holding pivot j, a multiple of a row of the reduced
    row echelon form, so the pivots are the RREF's whatever the row order.
    Returns ``(pivots, stop)``: elimination stops at the first row left zero
    on the first ``ncols`` columns but not beyond them (an inconsistent
    equation), stop is its index or ``len(rows)``.
    """
    pivots = []
    for i, row in enumerate(rows):
        for pivot, col in zip(rows, pivots):
            if row[col]:
                row = _clear(row, pivot, col)
        col = next(filter(row.__getitem__, range(ncols)), None)
        if col is None:
            if any(row[ncols:]):
                return pivots, i
            continue
        for j, pivot in enumerate(rows[: len(pivots)]):
            if pivot[col]:
                rows[j] = _clear(pivot, row, col)
        rows[len(pivots)] = row
        pivots.append(col)
    return pivots, len(rows)


def _null_vector(rows, pivots, col) -> list[int]:
    """Kernel vector of rows eliminated by :func:`_eliminate` with ``col``
    free: ``x[col]`` is the lcm L of the pivots, pivot column c of row j
    holds ``-row[col] * L / row[c]`` and every other column 0."""
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    x = [0] * len(rows[0])
    x[col] = scale
    for row, c in zip(rows, pivots):
        x[c] = -row[col] * (scale // row[c])
    return x


def rank(vectors) -> int:
    """Rank over the rationals of a list of integer vectors."""
    rows = list(vectors)
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    Returns ``(solution, free_columns)`` where every free variable is set to
    zero, or ``None`` when the system is inconsistent.  ``free_columns`` empty
    means the solution is unique.

    Each augmented row is scaled to integers and eliminated by
    :func:`_eliminate`; only the returned values ``rhs / pivot`` are
    Fractions.
    """
    if not matrix:
        return ([], []) if all(b == 0 for b in rhs) else None
    ncols = len(matrix[0])
    m = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = lcm(*(v.denominator for v in row))
        m.append([int(v * scale) for v in row])
    pivots, stop = _eliminate(m, ncols)
    if stop < len(m):
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        sol[col] = Fraction(row[ncols], row[col])
    free = [c for c in range(ncols) if c not in pivots]
    return sol, free

