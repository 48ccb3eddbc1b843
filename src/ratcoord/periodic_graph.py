"""Periodic graphs given by their finite quotient, and BFS on the cover.

A periodic graph is an infinite graph carrying a free translation action of
Z^d with finitely many vertex orbits.  It is described here by the quotient
data: the dimension d, the number m of vertex orbits, and one representative
per edge orbit, stored as ``(source, target, offset)`` meaning that vertex
``(source, g)`` of the cover is adjacent to ``(target, g + offset)`` for
every g in Z^d.

Breadth-first search on the cover is the ground-truth oracle for
coordination sequences: everything else in the package is checked against
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from ._exactlinalg import integral


class ParseError(ValueError):
    """Malformed graph file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EdgeOrbit(NamedTuple):
    source: int
    target: int
    offset: tuple[int, ...]


def canonical_edge_orbit(source: int, target: int, offset) -> EdgeOrbit:
    """Return the canonical orientation of an undirected edge orbit.

    Canonical means ``source < target``, or ``source == target`` with the
    offset lexicographically positive.  A self-edge with zero offset is not a
    graph edge and is rejected, as is an offset that is not integral.
    """
    offset = integral(offset, "offset coordinates")
    if source == target:
        if all(x == 0 for x in offset):
            raise ValueError("self-edge with zero offset")
        first_nonzero = next(x for x in offset if x != 0)
        if first_nonzero < 0:
            offset = tuple(-x for x in offset)
        return EdgeOrbit(source, target, offset)
    if source > target:
        source, target = target, source
        offset = tuple(-x for x in offset)
    return EdgeOrbit(source, target, offset)


@dataclass(frozen=True)
class PeriodicGraph:
    """Quotient description of a periodic graph.

    Edge orbits must already be in canonical orientation and pairwise
    distinct; use :func:`canonical_edge_orbit` or the parser to build them.
    """

    dim: int
    num_orbits: int
    edge_orbits: tuple[EdgeOrbit, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.num_orbits < 1:
            raise ValueError("num_orbits must be positive")
        object.__setattr__(self, "edge_orbits", tuple(self.edge_orbits))
        seen = set()
        for edge in self.edge_orbits:
            if len(edge.offset) != self.dim:
                raise ValueError(f"offset arity mismatch in {edge}")
            if not all(1 <= v <= self.num_orbits for v in (edge.source, edge.target)):
                raise ValueError(f"orbit index out of range in {edge}")
            if canonical_edge_orbit(*edge) != edge:
                raise ValueError(f"edge orbit not in canonical orientation: {edge}")
            if edge in seen:
                raise ValueError(f"duplicate edge orbit: {edge}")
            seen.add(edge)


class CoverVertex(NamedTuple):
    """A vertex of the infinite cover: an orbit index plus a Z^d shift."""

    orbit: int
    shift: tuple[int, ...]


@dataclass(frozen=True)
class CoordinationSequence:
    """Shell sizes c_0, c_1, ... around an origin vertex."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", integral(self.values, "coordination counts")
        )
        if any(v < 0 for v in self.values):
            raise ValueError("coordination counts must be nonnegative")
        if self.values and self.values[0] != 1:
            raise ValueError("c_0 must be 1 (the origin itself)")


def parse_periodic_graph(text: str) -> PeriodicGraph:
    """Parse the line-oriented quotient-graph format.

    Format (UTF-8 text, ``#`` starts a comment): first ``dim <d>``, then
    ``vertices <m>``, then zero or more ``edge <s> <t> <x1> ... <xd>`` lines
    with 1-based orbit indices.  Edge lines may appear in any order;
    orientation-flipped duplicates of one orbit are rejected.
    """
    lines = [  # (line number, tokens) of each line with text outside comments
        (line_no, tokens) for line_no, line in enumerate(text.splitlines(), start=1)
        if (tokens := line.split("#", 1)[0].split())
    ]
    header = []
    for i, (keyword, arg) in enumerate((("dim", "<d>"), ("vertices", "<m>"))):
        if i == len(lines):
            raise ParseError(len(text.splitlines()) + 1, f"missing {keyword!r} line")
        line_no, tokens = lines[i]
        if tokens[0] != keyword or len(tokens) != 2:
            raise ParseError(line_no, f"expected '{keyword} {arg}'")
        header.append(_parse_int(line_no, tokens[1]))
        if header[-1] < 1:
            raise ParseError(line_no, f"{keyword} must be positive")
    dim, num_orbits = header
    seen: dict[EdgeOrbit, int] = {}  # each edge orbit, in order, with its line
    for line_no, tokens in lines[2:]:
        if tokens[0] != "edge":
            raise ParseError(line_no, f"unknown directive {tokens[0]!r}")
        if len(tokens) != 3 + dim:
            raise ParseError(
                line_no, f"edge needs 2 orbit indices and {dim} offset entries"
            )
        s, t, *offset = (_parse_int(line_no, tok) for tok in tokens[1:])
        if not (1 <= s <= num_orbits and 1 <= t <= num_orbits):
            raise ParseError(line_no, f"orbit index out of range 1..{num_orbits}")
        try:
            edge = canonical_edge_orbit(s, t, offset)
        except ValueError:
            raise ParseError(line_no, "self-edge with zero offset") from None
        if edge in seen:
            raise ParseError(
                line_no, f"duplicate of edge orbit first given on line {seen[edge]}"
            )
        seen[edge] = line_no
    return PeriodicGraph(dim, num_orbits, tuple(seen))


def _parse_int(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {token!r}") from None


def _neighbor_specs(g: PeriodicGraph):
    """Per-orbit traversal table: 0-based orbit -> ((target, offset), ...)."""
    specs: list[set] = [set() for _ in range(g.num_orbits)]
    for s, t, offset in g.edge_orbits:
        neg = tuple(-x for x in offset)
        specs[s - 1].add((t - 1, offset))
        specs[t - 1].add((s - 1, neg))
    return tuple(tuple(sorted(spec)) for spec in specs)


def cover_neighbors(g: PeriodicGraph, v: CoverVertex) -> list[CoverVertex]:
    """Neighbors of a cover vertex, deduplicated and sorted."""
    if not (1 <= v.orbit <= g.num_orbits):
        raise ValueError(f"orbit index {v.orbit} out of range")
    out = set()
    for target, offset in _neighbor_specs(g)[v.orbit - 1]:
        shift = tuple(a + b for a, b in zip(v.shift, offset))
        out.add(CoverVertex(target + 1, shift))
    return sorted(out)


def bfs_coordination(
    g: PeriodicGraph,
    origin_orbit: int,
    depth: int,
    max_visited: int = 10_000_000,
) -> CoordinationSequence:
    """Coordination sequence by layered BFS on the cover.

    Counts cover vertices at each exact distance 0..depth from
    ``(origin_orbit, 0)``.  Holding more than ``max_visited`` cover vertices
    in the previous, current and next layer raises BudgetExceeded.  The
    layers are bitsets over a box that each axis sizes by the walks of at
    most ``depth`` edges, so ``max_visited`` also bounds its span: more than
    ``64 * max_visited`` cells over all orbits raise BudgetExceeded before
    the search starts.  Each layer is held above its own floor per orbit,
    and at half the index where the orbits' colours fix the parity of its
    cells (see ``_kernels.bfs_layer_counts``).
    """
    if not (1 <= origin_orbit <= g.num_orbits):
        raise ValueError(f"orbit index {origin_orbit} out of range")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    counts = _kernels.bfs_layer_counts(
        _neighbor_specs(g), origin_orbit - 1, depth, max_visited
    )
    return CoordinationSequence(tuple(counts))


def cumulative_counts(seq: CoordinationSequence) -> list[int]:
    """Partial sums: the number of vertices at distance <= k for each k."""
    return list(itertools.accumulate(seq.values))
