"""Shared corpus: graphs, automata, generating functions."""

import itertools
import os
import re
from pathlib import Path

import pytest

import ratcoord
from ratcoord import (
    LinearSet,
    PeriodicGraph,
    RationalGF,
    SemilinearSet,
    VectorNFA,
    canonical_edge_orbit,
    cover_neighbors,
    parse_periodic_graph,
)

SQUARE_TEXT = "dim 2\nvertices 1\nedge 1 1 1 0\nedge 1 1 0 1\n"
HONEYCOMB_TEXT = (
    "dim 2\nvertices 2\nedge 1 2 0 0\nedge 1 2 1 0\nedge 1 2 0 1\n"
)
EDGELESS_TEXT = "dim 1\nvertices 1\n"
CHAIN_TEXT = "dim 1\nvertices 1\nedge 1 1 1\n"
LADDER_TEXT = "dim 1\nvertices 2\nedge 1 2 0\nedge 1 1 1\nedge 2 2 1\n"
THREE_RING_TEXT = "dim 1\nvertices 3\nedge 1 2 0\nedge 2 3 0\nedge 1 3 1\n"

# three nets with closed-form coordination sequences, as in ratbench/nets/
PCU_TEXT = (
    "# primitive cubic (pcu)\ndim 3\nvertices 1\n"
    "edge 1 1 1 0 0\nedge 1 1 0 1 0\nedge 1 1 0 0 1\n"
)
DIA_TEXT = (
    "# diamond (dia), on the fcc lattice basis\ndim 3\nvertices 2\n"
    "edge 1 2 0 0 0\nedge 1 2 1 0 0\nedge 1 2 0 1 0\nedge 1 2 0 0 1\n"
)
BCU_TEXT = (
    "# body-centred cubic (bcu), on its primitive basis\ndim 3\nvertices 1\n"
    "edge 1 1 1 0 0\nedge 1 1 0 1 0\nedge 1 1 0 0 1\nedge 1 1 1 1 1\n"
)

GRAPH_TEXTS = {
    "square": SQUARE_TEXT,
    "honeycomb": HONEYCOMB_TEXT,
    "edgeless": EDGELESS_TEXT,
    "chain": CHAIN_TEXT,
    "ladder": LADDER_TEXT,
    "three_ring": THREE_RING_TEXT,
}


def supercell(g, m):
    """The ``m[0] x ... x m[d-1]`` supercell of ``g``: one orbit per (orbit v,
    cell c of the block), numbered orbit-major from 1, and per edge orbit
    (v, t, o) of ``g`` and cell c an edge from (v, c) to (t, (c + o) mod m)
    with offset (c + o) div m.  Every copy of an orbit has that orbit's
    coordination sequence in ``g``."""
    cells = list(itertools.product(*map(range, m)))
    keys = itertools.product(range(1, g.num_orbits + 1), cells)
    orbit = {key: number for number, key in enumerate(keys, 1)}
    edges = []
    for source, target, offset in g.edge_orbits:
        for cell in cells:
            moved = [c + o for c, o in zip(cell, offset)]
            wrapped = tuple(x % k for x, k in zip(moved, m))
            carry = tuple(x // k for x, k in zip(moved, m))
            edges.append(
                canonical_edge_orbit(orbit[source, cell], orbit[target, wrapped], carry)
            )
    return PeriodicGraph(g.dim, len(orbit), tuple(edges))


def cover_distances(g, start, depth):
    """``{cover vertex: distance}`` within ``depth`` of the cover vertex
    ``start``, by plain BFS: the slow reference, one ``cover_neighbors``
    call per vertex."""
    distances, frontier = {start: 0}, [start]
    for distance in range(1, depth + 1):
        reached = []
        for v in frontier:
            for u in cover_neighbors(g, v):
                if u not in distances:
                    distances[u] = distance
                    reached.append(u)
        frontier = reached
    return distances


def assert_outcome(call, expected):
    """``call()`` returns ``expected``, or raises it if it is an exception:
    one of its type whose message contains ``expected``'s."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


@pytest.fixture(scope="session")
def cli_env():
    """Environment in which ``python -m ratcoord`` imports the package under test."""
    src = str(Path(ratcoord.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def graphs():
    return {name: parse_periodic_graph(text) for name, text in GRAPH_TEXTS.items()}


@pytest.fixture(scope="session")
def square(graphs):
    return graphs["square"]


@pytest.fixture(scope="session")
def honeycomb(graphs):
    return graphs["honeycomb"]


@pytest.fixture(scope="session")
def edgeless(graphs):
    return graphs["edgeless"]


# the running example set: {(a, b) : a, b >= 2 and a + b even}, ambiguous
AMBIGUOUS_EXAMPLE = LinearSet((2, 2), ((2, 0), (1, 1), (0, 2)))


def ambiguous_example_points(limit):
    return {
        (a, b)
        for a in range(limit + 1)
        for b in range(limit + 1)
        if a >= 2 and b >= 2 and (a + b) % 2 == 0
    }


# small automata for the oracle-equivalence harness; (name, nfa,
# length_is_last_coord) where the flag marks automata whose run length
# equals the final output coordinate (coordination-style), enabling an exact
# two-sided oracle comparison
def _small_nfas():
    out = []
    stay2 = (0, 1)
    out.append(
        (
            "self_loop",
            VectorNFA(2, 1, frozenset({1}), frozenset({1}), ((1, stay2, 1),)),
            True,
        )
    )
    out.append(
        (
            "single_edge",
            VectorNFA(
                3, 2, frozenset({1}), frozenset({2}), ((1, (1, 0, 1), 2),)
            ),
            True,
        )
    )
    out.append(
        (
            "two_loops",
            VectorNFA(
                2,
                1,
                frozenset({1}),
                frozenset({1}),
                ((1, (1, 0), 1), (1, (0, 1), 1)),
            ),
            False,
        )
    )
    out.append(
        (
            "vanishing_cycle",
            VectorNFA(
                2,
                3,
                frozenset({1}),
                frozenset({1}),
                ((1, (1, 0), 2), (2, (0, 1), 3), (3, (-1, -1), 1)),
            ),
            False,
        )
    )
    out.append(
        (
            "branch",
            VectorNFA(
                2,
                3,
                frozenset({1}),
                frozenset({2, 3}),
                (
                    (1, (1, 0), 2),
                    (1, (0, 1), 3),
                    (2, (2, 0), 2),
                    (3, (0, 3), 3),
                ),
            ),
            False,
        )
    )
    out.append(
        (
            "mixed",
            VectorNFA(
                2,
                2,
                frozenset({1}),
                frozenset({1}),
                ((1, (1, 1), 2), (2, (0, 1), 1), (2, (1, 0), 2)),
            ),
            False,
        )
    )
    return out


@pytest.fixture(scope="session")
def small_nfas():
    return _small_nfas()


# rational generating functions with denominator degree <= 6
def _gf_corpus():
    return [
        RationalGF.one(),
        RationalGF((1,), (1, -1)),
        RationalGF((1,), (1, 0, -1)),
        RationalGF((1, 2, 1), (1, -2, 1)),
        RationalGF((1, 1, 1), (1, -2, 1)),
        RationalGF((1, 3, 3, 1), (1, -3, 3, -1)),
        RationalGF((0, 0, 1), (1, 0, 0, -1)),
        RationalGF((1, 1), (1, -1, 0, 0, -1, 1)),
        RationalGF((2, 0, 1), (1, -1, -1, 1)),
        RationalGF((1, 0, 0, 1), (1, 0, -1)),
        RationalGF((1, 4), (1, -2, 0, 2, -1)),
        RationalGF((5,), (1, 1)),
        RationalGF((1, 0, 1)),
    ]


@pytest.fixture(scope="session")
def gf_corpus():
    return _gf_corpus()


# unambiguous linear sets with strictly positive projections on a chosen
# coordinate: (set, coordinate_index)
def _unambiguous_corpus():
    return [
        (LinearSet((0,), ((1,),)), 1),
        (LinearSet((2,), ((3,),)), 1),
        (LinearSet((5,), ()), 1),
        (LinearSet((1, 2), ((1, 1), (2, 1))), 2),
        (LinearSet((0, 0), ((1, 2), (1, 3))), 2),
        (LinearSet((3, 1), ((2, 3),)), 1),
        (LinearSet((0, 0, 0), ((1, 0, 2), (0, 1, 2), (0, 0, 1))), 3),
        (LinearSet((1, 1, 2), ((0, 0, 1), (0, 1, 1), (1, 0, 1))), 3),
        (LinearSet((0, 2), ((2, 1), (3, 2))), 2),
        (LinearSet((4, 0), ((1, 5),)), 1),
        (LinearSet((0, 0), ((2, 7), (5, 3))), 1),
        (LinearSet((2, 0, 1), ((1, 1, 1), (2, 0, 1), (0, 3, 2))), 3),
    ]


@pytest.fixture(scope="session")
def unambiguous_corpus():
    return _unambiguous_corpus()
