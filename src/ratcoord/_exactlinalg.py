"""Small exact linear-algebra helpers over the rationals.

Everything here works on sequences of ints or Fractions and never touches
floating point.  Elimination runs on integers alone: rows are scaled to
integers and kept primitive by gcd division, so no Fraction is built until
a solution is returned.  Only :func:`solve` and its callers
(``genfunc.to_quasi_polynomial`` and :func:`solve_columns`) build
Fractions; the recurrence fit of ``genfunc.fit_rational`` calls
:func:`_eliminate` on its integer rows directly and builds none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(rows, ncols) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot clears its column (among the first ``ncols``) from every
    other row by integer cross-multiplication, and each new row is divided
    by the gcd of its entries.  Every row stays a nonzero multiple of the
    row that elimination over the Fractions would hold, so the pivot
    columns, which are returned, are the same; row i holds pivot i.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        a = pivot[col]
        for i, row in enumerate(rows):
            b = row[col]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots


def rank(vectors) -> int:
    """Rank over the rationals of a list of integer vectors."""
    rows = [list(vec) for vec in vectors]
    return len(_eliminate(rows, len(rows[0]) if rows else 0))


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
    pivots = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        sol[col] = Fraction(row[ncols], row[col])
    free = [c for c in range(ncols) if c not in pivots]
    return sol, free


def solve_columns(columns, target):
    """Solve ``sum_j x_j * columns[j] = target`` exactly over the rationals.

    Same return convention as :func:`solve`.
    """
    if not columns:
        return ([], []) if all(t == 0 for t in target) else None
    dim = len(columns[0])
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(dim)]
    return solve(matrix, list(target))
