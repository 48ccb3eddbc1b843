"""Small exact linear-algebra helpers over the rationals.

Everything here works on sequences of ints or Fractions and never touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _echelonize(m, ncols):
    """Reduce the augmented matrix ``m`` in place; return the pivot columns."""
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


def rank(vectors) -> int:
    """Rank over the rationals of a list of integer vectors.

    Fraction-free elimination: each pivot row clears its column from the
    other rows by integer cross-multiplication, and every new row is divided
    by the gcd of its entries, so no Fraction is built.
    """
    rows = [list(vec) for vec in vectors if any(vec)]
    r = 0
    while rows:
        pivot = rows.pop()
        col = next(i for i, x in enumerate(pivot) if x)
        a = pivot[col]
        reduced = []
        for row in rows:
            b = row[col]
            if b:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                if not g:
                    continue
                row = [x // g for x in row]
            reduced.append(row)
        rows = reduced
        r += 1
    return r


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    Returns ``(solution, free_columns)`` where every free variable is set to
    zero, or ``None`` when the system is inconsistent.  ``free_columns`` empty
    means the solution is unique.
    """
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


def solve_columns(columns, target):
    """Solve ``sum_j x_j * columns[j] = target`` exactly over the rationals.

    Same return convention as :func:`solve`.
    """
    if not columns:
        return ([], []) if all(t == 0 for t in target) else None
    dim = len(columns[0])
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(dim)]
    return solve(matrix, list(target))
