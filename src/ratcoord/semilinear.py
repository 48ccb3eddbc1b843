"""Linear and semilinear sets: membership, enumeration, and disambiguation.

A linear set is ``{base + n_1*p_1 + ... + n_k*p_k : n_j in N}``; a semilinear
set is a finite union of linear sets.  A linear set is unambiguous when every
member has exactly one coefficient tuple.  The operations here are all exact
and bounded: the members of a whole set in a box come from a bit-parallel
sweep, counting and ``validate_decomposition`` from a kernel that returns
the multiplicity of every point of one linear set inside a box, and the
disambiguation procedure is a restricted greedy search on the sweep's
bitsets whose cover is certified on its box by construction.  The same
greedy covers the first-distance shell of a coordination image
(``decompose_shell``), whose last-coordinate projection is the
coordination sequence itself.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import and_

from . import _kernels
from ._exactlinalg import _eliminate, _null_vector, integral, rank
from .errors import DecompositionError


@dataclass(frozen=True)
class LinearSet:
    """Base-plus-periods lattice point set.

    Zero periods and duplicate periods are dropped at construction (either
    makes unambiguity impossible).  A coordinate that is not integral
    raises ValueError.
    """

    base: tuple[int, ...]
    periods: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        base = integral(self.base)
        object.__setattr__(self, "base", base)
        kept: dict[tuple[int, ...], None] = {}  # insertion-ordered set
        for period in self.periods:
            period = integral(period)
            if len(period) != len(base):
                raise ValueError(
                    f"period {period} has wrong dimension (base is {base})"
                )
            if any(period):
                kept[period] = None
        object.__setattr__(self, "periods", tuple(kept))

    @property
    def dim(self) -> int:
        return len(self.base)


@dataclass(frozen=True)
class SemilinearSet:
    """Finite union of linear sets of one common dimension.

    ``certified`` means the parts are known pairwise disjoint and each
    unambiguous over a verification box; it is set only by ``disambiguate``
    and ``decompose_shell`` (and read back from JSON), never by
    constructing the value.
    """

    parts: tuple[LinearSet, ...]
    certified: bool = field(default=False, init=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        dims = {part.dim for part in self.parts}
        if len(dims) > 1:
            raise ValueError(f"parts have mixed dimensions {sorted(dims)}")

    @property
    def dim(self):
        return self.parts[0].dim if self.parts else None


def _mark_certified(s: SemilinearSet) -> SemilinearSet:
    out = SemilinearSet(s.parts)
    object.__setattr__(out, "certified", True)
    return out


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Unambiguous:
    """Every member has exactly one coefficient tuple."""


@dataclass(frozen=True)
class AmbiguousWitness:
    """A concrete point with at least two coefficient tuples."""

    point: tuple[int, ...]


# ---------------------------------------------------------------------------
# helpers

@lru_cache(maxsize=None)
def _functional_grid(dim: int) -> tuple:
    """Nonzero candidate functionals of ``_positive_functional``, in search order."""
    if dim > 6:
        units = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
        return tuple(units + [tuple(-w for w in c) for c in units])
    radius = 3 if dim <= 4 else 1
    grid = itertools.product(range(-radius, radius + 1), repeat=dim)
    return tuple(
        sorted(filter(any, grid), key=lambda w: (sum(abs(x) for x in w), w))
    )


@lru_cache(maxsize=4096)
def _positive_functional(periods: tuple, dim: int):
    """Integer w with w . p >= 1 for every period, or None.

    Searched over a small grid; enough for every set this package builds
    (coordination-set periods all advance the path-length coordinate).
    """
    if not periods:
        return None
    for w in _functional_grid(dim):
        if all(sum(a * b for a, b in zip(w, p)) >= 1 for p in periods):
            return w
    return None


def _check_dim(l_or_s, v):
    dim = l_or_s.dim
    if dim is not None and len(v) != dim:
        raise ValueError(f"vector {v} has wrong dimension (expected {dim})")


def _magnitude(parts) -> int:
    """Largest coordinate magnitude among bases and periods (at least 1)."""
    vectors = [vec for part in parts for vec in (part.base, *part.periods)]
    return max([1] + [abs(x) for vec in vectors for x in vec])


# ---------------------------------------------------------------------------
# representation counting and membership

def count_representations(l: LinearSet, v, budget: int = 1_000_000) -> int:
    """Exact number of coefficient tuples representing v in the linear set.

    Fraction-free elimination of the integer rows ``[p_1[i], ..., p_k[i],
    v[i] - base[i]]`` settles an inconsistent system (0) and linearly
    independent periods, whose one solution is read off the pivot rows.
    Otherwise, when no positive functional bounds the periods, a v that the
    sweep of ``enumerate_in_box`` does not reach counts 0; the rest are
    counted by the multiplicity kernel over the one-point box ``[v, v]``.
    ``budget`` caps the sweep's grid at ``64 * budget`` bits and the
    kernel's explored nodes at ``budget``; exceeding either raises
    BudgetExceeded, as a member whose periods have a zero-sum combination
    (infinitely many tuples) does.
    """
    _check_dim(l, v)
    v = integral(v)
    k = len(l.periods)
    rows = [[*column, a - b] for *column, a, b in zip(*l.periods, v, l.base)]
    pivots, stop = _eliminate(rows, k)
    if stop < len(rows):
        return 0
    if len(pivots) == k:
        # the coefficient of pivot column c is r[k] / r[c]
        ok = all(r[k] % r[c] == 0 and r[k] * r[c] >= 0
                 for r, c in zip(rows, pivots))
        return 1 if ok else 0
    if _positive_functional(l.periods, l.dim) is None and v not in enumerate_in_box(
        SemilinearSet((l,)), v, v, budget
    ):
        return 0
    return _part_counts(l, v, v, budget).get(v, 0)


def member(s: SemilinearSet, v, budget: int = 1_000_000) -> bool:
    """True iff some part represents v at least once.

    A part with a positive functional counts its representations.  A part
    without one may have periods with a zero-sum combination, which no
    count bounds, so it is swept by ``enumerate_in_box`` over the one-point
    box ``[v, v]``, whose grid ``budget`` caps at ``64 * budget`` bits.
    """
    _check_dim(s, v)
    v = integral(v)
    return any(
        count_representations(part, v, budget=budget) >= 1
        if _positive_functional(part.periods, part.dim) is not None
        else v in enumerate_in_box(SemilinearSet((part,)), v, v, budget)
        for part in s.parts
    )


# ---------------------------------------------------------------------------
# enumeration

def _part_counts(part: LinearSet, lo, hi, budget):
    """Box points of one part with their representation multiplicities."""
    w = _positive_functional(part.periods, part.dim)
    return _kernels.linear_point_counts(
        part.base, part.periods, tuple(lo), tuple(hi), w, budget
    )


def enumerate_in_box(s: SemilinearSet, lo, hi, budget: int = 5_000_000):
    """Members of the set inside the box, with set semantics across parts.

    Parts that cannot reach the box are dropped (``_kernels._past_box``,
    with a positive functional of the periods of the parts left as one more
    coordinate) until none is, so no base lies above the box's top level.
    The rest are swept in one grid (``_swept``), one level per value of that
    functional; with none, one level holds everything and each period is
    closed to a fixpoint in it.
    ``budget`` caps the grid at ``64 * budget`` bits over its levels,
    checked before any level is built.  The grid is the hull of the box and
    the bases, widened by the Steinitz bound on the cell axes only.  So a
    base far from a small box costs budget even when its part has no point
    in the box: base
    (8, -7, 11, -2) with periods ((-2, -2, -3, 3), (2, 3, -3, 0)) in the box
    (-5, -4, -1, 2)..(-4, 0, 2, 4) raises BudgetExceeded at budget 10**6,
    where ``_kernels.linear_point_counts`` finds no point.
    """
    lo, hi = integral(lo), integral(hi)
    _check_dim(s, lo)
    _check_dim(s, hi)
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"box is empty: lo={lo} hi={hi}")
    parts, dropped = s.parts, True
    while dropped:  # until the functional of the parts left drops none of them
        w = _positive_functional(tuple(set().union(*(p.periods for p in parts))), len(lo))
        kept = [part for part in parts if not _kernels._past_box(
            *_kernels._with_functional(w, part.base, part.periods, lo, hi))]
        parts, dropped = kept, len(kept) < len(parts)
    if not parts:
        return set()
    grid, (levels,) = _swept([parts], lo, hi, budget)
    return set(grid.decode(levels))


def slice_counts(s: SemilinearSet, i: int, y_max: int) -> list[int]:
    """Number of members with coordinate-i projection equal to y, y=0..y_max.

    Requires every period to have strictly positive projection on i (which
    makes every slice finite) and every base projection nonnegative.
    """
    if y_max < 0:
        raise ValueError("y_max must be nonnegative")
    idx = i - 1
    for part in s.parts:
        if not (0 <= idx < part.dim):
            raise ValueError(f"coordinate index {i} out of range")
        if part.base[idx] < 0:
            raise ValueError(
                f"base {part.base} has negative coordinate-{i} projection"
            )
        for period in part.periods:
            if period[idx] <= 0:
                raise ValueError(
                    f"finite-slice condition violated: period {period} has "
                    f"coordinate-{i} projection {period[idx]} <= 0"
                )
    # each period adds >= 1 to coordinate i and no base is below 0, so a
    # point with y <= y_max uses at most y_max periods: this box holds them
    # all; coordinate i is a positive functional of every part, so the
    # search is finite and no node budget applies
    dim = s.dim or 0  # an empty set has no dimension and no points
    reach = _magnitude(s.parts) * (y_max + 1)
    lo = tuple(0 if j == idx else -reach for j in range(dim))
    hi = tuple(y_max if j == idx else reach for j in range(dim))
    counts = [0] * (y_max + 1)
    for point in enumerate_in_box(s, lo, hi, sys.maxsize):
        counts[point[idx]] += 1
    return counts


# ---------------------------------------------------------------------------
# unambiguity

def check_unambiguous(l: LinearSet):
    """Decide unambiguity of one linear set exactly.

    A linear set is unambiguous iff its periods are linearly independent
    (Ito, JCSS 1969): an integer kernel vector z of the periods gives two
    coefficient tuples, z+ and z-, of ``base + P z+``, the witness for the
    primitive z of the first free column.  With a one-dimensional kernel
    every ambiguous point is the witness plus a sum of periods, so under
    any positive functional the witness is the smallest.
    """
    k = len(l.periods)
    rows = list(zip(*l.periods))
    pivots, _ = _eliminate(rows, k)
    free = next((c for c in range(k) if c not in pivots), None)
    if free is None:
        return Unambiguous()
    z = _null_vector(rows, pivots, free)
    g = gcd(*z)
    point = l.base
    for coeff, period in zip(z, l.periods):
        if coeff > 0:
            point = tuple(x + coeff // g * p for x, p in zip(point, period))
    return AmbiguousWitness(point)


# ---------------------------------------------------------------------------
# decomposition

def validate_decomposition(
    original: SemilinearSet,
    candidate: SemilinearSet,
    lo,
    hi,
    budget: int = 5_000_000,
) -> bool:
    """Box certification of a decomposition by representation counts.

    True iff, inside the box: the candidate covers exactly the original's
    points, the candidate parts are pairwise disjoint, and every candidate
    part represents each of its box points exactly once.  Each part is
    counted in its own kernel call, which ``budget`` caps, so this is an
    oracle independent of the grid that ``disambiguate`` certifies in.
    """
    lo, hi = integral(lo), integral(hi)
    orig_points = enumerate_in_box(original, lo, hi, budget)
    counts: Counter = Counter()
    for part in candidate.parts:
        counts.update(_part_counts(part, lo, hi, budget))
    return counts.keys() == orig_points and all(c == 1 for c in counts.values())


def _swept(sets, lo, hi, budget):
    """One ``_kernels.BoxGrid`` of all the sets' bases and periods, with a
    positive functional of the periods (or none) and capped by ``budget``,
    and the box levels in it of each set, a sequence of linear sets.  Every
    grid of this module is built here."""
    periods = set().union(*(part.periods for parts in sets for part in parts))
    weights = _positive_functional(tuple(periods), len(lo))
    bases = [part.base for parts in sets for part in parts]
    grid = _kernels.BoxGrid(bases, periods, lo, hi, weights, budget)
    pairs = ([(part.base, part.periods) for part in parts] for parts in sets)
    return grid, [_kernels.linear_sets_in_box(p, grid) for p in pairs]


def same_shell_in_box(
    image: SemilinearSet, shell: SemilinearSet, lo, hi, budget: int
) -> bool:
    """True iff ``shell`` has exactly the points of the image's first-distance
    shell (see ``decompose_shell``) in the box, which holds every base.

    Both are swept in one grid, and the image's levels are cut to its shell
    before they are compared with the shell's level by level.
    """
    if not image.parts + shell.parts:  # BoxGrid needs a base
        return True
    grid, (levels, shell_levels) = _swept([image.parts, shell.parts], lo, hi, budget)
    return _shell(grid, levels) == shell_levels


def _shell(grid, levels):
    """Levels of I minus (I + e_y), for I swept in a grid whose functional is
    e_y: e_y raises the level by one and moves no cell, so level k of the
    shell is ``I[k] & ~I[k - 1]``."""
    dim = len(grid.weights)
    if grid.weights != (0,) * (dim - 1) + (1,):
        raise DecompositionError(
            f"the shell needs the functional e_y, not {grid.weights}"
        )
    return [level & ~below for level, below in zip(levels, [0, *levels])]


def _independent_subsets(universe, max_size, width=None):
    """Subsets of at most ``max_size`` periods whose first ``width``
    coordinates (all by default) are linearly independent: the largest
    first, lexicographic within a size, and the empty subset last.  The
    5,001st subset raises DecompositionError as soon as it is found."""
    subsets = []
    for size in range(max_size, 0, -1):
        for combo in itertools.combinations(universe, size):
            if rank([p[:width] for p in combo]) == size:
                if len(subsets) == 4999:  # with the empty subset, 5,001
                    raise DecompositionError(
                        f"period universe too large ({len(universe)} periods) "
                        "for the restricted search"
                    )
                subsets.append(combo)
    return subsets + [()]


def _popcount(levels):
    return sum(map(int.bit_count, levels))


def _greedy_cover(grid, uncovered, subsets):
    """Disjoint unambiguous cones that cover the uncovered box levels exactly.

    The levels are walked in (level, bit) order, the order of the
    functional, then of the point.  Every period raises the level, so each
    level's uncovered bits, decoded when the walk reaches it, are the bases
    u of the chosen cones ``L(u; P)``, with P one of ``subsets``.  Every
    accepted cone must have only uncovered points in the grid's box, so a
    subset is tried only if each of its periods q steps from u past the
    top level, off ``grid.box`` or onto an uncovered bit (as u is in the
    box and q rises, onto a cell of the grid's region); the grid's periods
    hold every period of a subset, and the other subsets contain an
    inadmissible point.  The admissible cone with the most box points wins,
    then the one with fewer periods, then the smaller periods: the least key
    ``(-points, len(P), P)``.  Each candidate cone is swept up from u in
    the grid, and it is admissible iff no level has a cone bit that is not
    uncovered.  ``uncovered`` is cleared in place.

    The subsets come largest first.  Once a cone is admissible, a subset
    is swept only if it can still win: a box point ``u + sum n_j p_j`` of
    ``L(u; P)`` lies at most at the box's top level, so the cone has at
    most ``B = #{n : sum n_j rise_j <= top - level(u)}`` points, ``rise_j
    >= 1`` the rise of ``p_j``, and a subset whose ``(-B, len(P), P)``
    exceeds the best key has a larger key too.  So the cover is the one
    that sweeping every subset gives.
    """
    def most_points(periods, room):
        # ways[t]: coefficient tuples whose levels add up to t
        ways = [1] + [0] * room
        for p in periods:
            rise = grid.moves[p][0]
            for t in range(rise, room + 1):
                ways[t] += ways[t - rise]
        return sum(ways)

    chosen: list[LinearSet] = []
    # decode reads a level of ``uncovered`` only when the walk reaches it,
    # so the cones cleared in place below are never decoded
    for base in grid.decode(uncovered):
        if len(chosen) >= 1000:
            raise DecompositionError("greedy cover exceeded 1000 parts")
        index = k, bit = grid.index(base)
        admissible = {
            q for q, (rise, step) in grid.moves.items()
            if k + rise >= grid.levels or not grid.box >> bit + step & 1
            or uncovered[k + rise] >> bit + step & 1
        }
        room = grid.levels - 1 - k
        # the empty subset comes last; its cone {base} always qualifies, and
        # its key (-1, 0, ()) beats every best key of one box point
        best = None
        for periods in subsets:
            if not admissible.issuperset(periods):
                continue
            if best and (-most_points(periods, room), len(periods), periods) > best[0]:
                continue  # not even its bound beats the best key
            cone = _kernels.linear_points_in_box(index, periods, grid)
            if list(map(and_, cone, uncovered)) == cone:
                key = (-_popcount(cone), len(periods), periods)
                if best is None or key < best[0]:
                    best = key, cone
        (_, _, periods), cone = best
        chosen.append(LinearSet(base, periods))
        uncovered[:] = [u & ~c for u, c in zip(uncovered, cone)]
    return _mark_certified(SemilinearSet(tuple(chosen)))


def disambiguate(
    s: SemilinearSet,
    box_radius: int | None = None,
    budget: int = 1_000_000,
) -> SemilinearSet:
    """Equivalent-on-box union of pairwise disjoint unambiguous linear sets.

    Restricted greedy search (``_greedy_cover``) on one ``_kernels.BoxGrid``
    of the box, the bases and the periods, where every set is one bitset
    per level.  The input is swept into it and covered by cones
    ``L(u; P)`` with P a linearly independent subset of the input's
    periods, of at most 5,000 subsets.  So the cover is box-certified by
    construction: its cones are disjoint, unambiguous (independent by
    rank) and leave nothing uncovered.  The input itself is returned when
    its parts are independent and their popcounts, each swept alone, add up
    to the input's: then they are pairwise disjoint.

    The verification box is ``[-r, r]^dim`` with r defaulting to four times
    the largest coordinate magnitude among bases and periods; an explicit
    ``box_radius`` is clamped up so the box always contains every base.
    ``budget`` caps only the grid, at ``64 * budget`` bits; it is checked
    once, before the input is swept, so no candidate is skipped for its
    size.
    """
    parts = tuple(dict.fromkeys(s.parts))
    if not parts:
        return _mark_certified(SemilinearSet(()))
    dim = parts[0].dim
    magnitude = _magnitude(parts)
    radius = box_radius if box_radius is not None else 4 * magnitude
    radius = max(radius, magnitude + 1)

    universe = sorted({p for part in parts for p in part.periods})
    if universe and _positive_functional(tuple(universe), dim) is None:
        raise DecompositionError(
            "periods admit no positive functional; the restricted search "
            "cannot order the box"
        )

    # one grid for the box and the universe; the bases are box points
    grid, (uncovered,) = _swept([parts], (-radius,) * dim, (radius,) * dim, budget)

    # fast path: independent parts that are pairwise disjoint in the box
    if all(rank(part.periods) == len(part.periods) for part in parts):
        sweeps = (_kernels.linear_sets_in_box([(p.base, p.periods)], grid) for p in parts)
        if sum(map(_popcount, sweeps)) == _popcount(uncovered):
            return _mark_certified(SemilinearSet(parts))

    subsets = _independent_subsets(universe, min(dim, len(universe)))
    return _greedy_cover(grid, uncovered, subsets)


def decompose_shell(
    image: SemilinearSet, box_radius: int, budget: int = 1_000_000
) -> SemilinearSet:
    """Disjoint unambiguous cover of a coordination image's shell on a box.

    Every part of a coordination image carries the waiting period e_y (the
    last unit vector), so the image is I = {(x, y) : y >= dist(x)} and its
    shell F = I minus (I + e_y) = {(x, dist(x))} holds each reachable cell
    once, at its first distance: the generating function of F's last
    coordinate is the coordination sequence's.  The image is swept into one
    ``_kernels.BoxGrid`` of the box ``[-r, r]^dim`` (r is ``box_radius``,
    clamped up to hold every base) with the functional e_y, whose level k
    of F is ``I[k] & ~I[k - 1]``; any other functional raises
    DecompositionError.  ``_greedy_cover`` covers F's box points with cones
    ``L(u; P)``, P a set of periods whose cell parts (all coordinates but
    the last) are linearly independent: a cone inside F holds at most one
    point per cell, and two coefficient tuples that differ by an integer
    kernel vector of the cell parts give two points of one cell.  So P has
    at most ``dim - 1`` periods and no e_y.  More than 5,000 subsets raise
    DecompositionError.  ``budget`` caps the grid as in ``disambiguate``.
    """
    parts = tuple(dict.fromkeys(image.parts))
    if not parts:
        return _mark_certified(SemilinearSet(()))
    dim = parts[0].dim
    radius = max(box_radius, _magnitude(parts) + 1)
    grid, (levels,) = _swept([parts], (-radius,) * dim, (radius,) * dim, budget)
    subsets = _independent_subsets(sorted(grid.moves), dim - 1, dim - 1)
    return _greedy_cover(grid, _shell(grid, levels), subsets)


# ---------------------------------------------------------------------------
# serialization

def linear_set_to_json(l: LinearSet) -> dict:
    return {"base": list(l.base), "periods": [list(p) for p in l.periods]}


def _malformed(what, exc) -> ValueError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else "wrong shape"
    return ValueError(f"malformed {what} JSON: {detail}")


def linear_set_from_json(data: dict) -> LinearSet:
    """Inverse of linear_set_to_json; ValueError on a missing key, a wrong
    shape or a coordinate that is not a JSON integer (none is converted)."""
    try:
        base, periods = data["base"], data["periods"]
        if not all(type(x) is int for vector in (base, *periods) for x in vector):
            raise ValueError("malformed linear set JSON: non-integer coordinate")
        return LinearSet(tuple(base), tuple(tuple(p) for p in periods))
    except (KeyError, TypeError) as exc:
        raise _malformed("linear set", exc) from exc


def semilinear_to_json(s: SemilinearSet) -> dict:
    return {
        "parts": [linear_set_to_json(part) for part in s.parts],
        "certified": s.certified,
    }


def semilinear_from_json(data: dict) -> SemilinearSet:
    """Inverse of semilinear_to_json; ValueError on a missing key, a wrong
    shape or a ``certified`` that is not a JSON boolean (missing means false)."""
    try:
        parts = data["parts"]
        s = SemilinearSet(tuple(linear_set_from_json(p) for p in parts))
        certified = data.get("certified", False)
    except (KeyError, TypeError) as exc:
        raise _malformed("semilinear set", exc) from exc
    if type(certified) is not bool:
        raise ValueError("malformed semilinear set JSON: non-boolean certified")
    return _mark_certified(s) if certified else s
