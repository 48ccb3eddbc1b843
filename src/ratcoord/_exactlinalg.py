"""Small exact linear-algebra helpers over the rationals.

No floating point and no Fraction anywhere.  One fraction-free elimination
by rows, :func:`_eliminate`, serves :func:`rank`, the recurrence fit of
``genfunc.fit_rational``, ``genfunc.to_quasi_polynomial``,
``semilinear.count_representations`` and ``semilinear.check_unambiguous``;
each reads its solution or an integer kernel vector (:func:`_null_vector`)
off the pivot rows.
"""

from __future__ import annotations

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
