"""Small exact linear-algebra helpers over the rationals.

Everything here works on sequences of ints or Fractions and never touches
floating point.  Elimination runs on integers alone: rows are scaled to
integers and kept primitive by gcd division, so no Fraction is built until
a solution is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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

    Fraction-free Gauss-Jordan elimination: each augmented row is scaled to
    integers, a pivot clears its column from every other row by integer
    cross-multiplication, and each new row is divided by the gcd of its
    entries.  Every row stays a nonzero multiple of the row that elimination
    over the Fractions would hold, so the pivot columns are the same; only
    the returned values ``rhs / pivot`` are Fractions.
    """
    if not matrix:
        return ([], []) if all(b == 0 for b in rhs) else None
    ncols = len(matrix[0])
    m = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = lcm(*(v.denominator for v in row))
        m.append([int(v * scale) for v in row])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        a = pivot[col]
        for i, row in enumerate(m):
            b = row[col]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
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
