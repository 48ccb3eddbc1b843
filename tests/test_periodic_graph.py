import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcoord import (
    BudgetExceeded,
    CoordinationSequence,
    CoverVertex,
    EdgeOrbit,
    ParseError,
    PeriodicGraph,
    bfs_coordination,
    canonical_edge_orbit,
    cover_neighbors,
    cumulative_counts,
    parse_periodic_graph,
)
from .conftest import (
    BCU_TEXT,
    DIA_TEXT,
    PCU_TEXT,
    SQUARE_TEXT,
    assert_outcome,
    cover_distances,
)


class TestParse:
    def test_square_lattice(self):
        g = parse_periodic_graph(SQUARE_TEXT)
        assert g.dim == 2
        assert g.num_orbits == 1
        assert set(g.edge_orbits) == {
            EdgeOrbit(1, 1, (1, 0)),
            EdgeOrbit(1, 1, (0, 1)),
        }

    def test_no_edges_is_valid(self):
        g = parse_periodic_graph("dim 1\nvertices 1")
        assert g.edge_orbits == ()

    def test_comments_and_blank_lines(self):
        text = "# a lattice\n\ndim 2  # two dimensional\nvertices 1\nedge 1 1 1 0\n"
        g = parse_periodic_graph(text)
        assert g.edge_orbits == (EdgeOrbit(1, 1, (1, 0)),)

    def test_flipped_orientation_is_canonicalized(self):
        g = parse_periodic_graph("dim 2\nvertices 2\nedge 2 1 1 0")
        assert g.edge_orbits == (EdgeOrbit(1, 2, (-1, 0)),)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("dim 2\nvertices 1\nedge 1 1 0 0", 3, "self-edge"),
            ("dim 2\nvertices 1\nedge 1 2 1 0", 3, "out of range"),
            ("dim 2\nvertices 1\nedge 1 1 1", 3, "offset"),
            ("dim 2\nvertices 1\nedge 1 1 1 0\nedge 1 1 -1 0", 4, "duplicate"),
            ("dim 2\nvertices 1\nedge 1 1 1 0\nedge 1 1 1 0", 4, "duplicate"),
            ("dim 2\nvertices 1\nvertex 2", 3, "unknown directive"),
            ("dim 2\nvertices 1\nedge 1 1 1 x", 3, "integer"),
            ("vertices 1\ndim 2", 1, "dim"),
            ("dim 0\nvertices 1", 1, "positive"),
            ("dim 2", 2, "missing 'vertices'"),
            ("", 1, "missing 'dim'"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_periodic_graph(text)
        assert excinfo.value.line_no == line
        assert fragment in str(excinfo.value)

    def test_constructor_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            PeriodicGraph(2, 2, (EdgeOrbit(2, 1, (0, 0)),))
        with pytest.raises(ValueError):
            PeriodicGraph(2, 1, (EdgeOrbit(1, 1, (-1, 0)),))

    def test_canonical_edge_orbit_self_edge(self):
        assert canonical_edge_orbit(1, 1, (-1, 2)) == EdgeOrbit(1, 1, (1, -2))
        with pytest.raises(ValueError):
            canonical_edge_orbit(1, 1, (0, 0))

    def test_canonical_edge_orbit_nonintegral_offset(self):
        with pytest.raises(ValueError, match="integers"):
            canonical_edge_orbit(1, 2, (0.5, 1))
        assert canonical_edge_orbit(1, 2, (2.0, 1)) == EdgeOrbit(1, 2, (2, 1))


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(
            lambda: PeriodicGraph(0, 1, ()),
            ValueError("dim must be positive"),
            id="dim",
        ),
        pytest.param(
            lambda: PeriodicGraph(1, 0, ()),
            ValueError("num_orbits must be positive"),
            id="num_orbits",
        ),
        pytest.param(
            lambda: PeriodicGraph(2, 1, (EdgeOrbit(1, 1, (1,)),)),
            ValueError("offset arity mismatch"),
            id="arity",
        ),
        pytest.param(
            lambda: PeriodicGraph(1, 1, (EdgeOrbit(0, 1, (1,)),)),
            ValueError("orbit index out of range"),
            id="source",
        ),
        pytest.param(
            lambda: PeriodicGraph(1, 1, (EdgeOrbit(1, 2, (1,)),)),
            ValueError("orbit index out of range"),
            id="target",
        ),
        pytest.param(
            lambda: PeriodicGraph(1, 1, (EdgeOrbit(1, 1, (-1,)),)),
            ValueError("not in canonical orientation"),
            id="orientation",
        ),
        pytest.param(
            lambda: PeriodicGraph(1, 1, (EdgeOrbit(1, 1, (1,)),) * 2),
            ValueError("duplicate edge orbit"),
            id="duplicate",
        ),
        pytest.param(
            lambda: parse_periodic_graph("dim 1\nverts 1\n"),
            ParseError(2, "expected 'vertices <m>'"),
            id="vertices_line",
        ),
        pytest.param(
            lambda: parse_periodic_graph("dim 1\nvertices 0\n"),
            ParseError(2, "vertices must be positive"),
            id="vertices_count",
        ),
        pytest.param(  # orbit 0 would index the last orbit's neighbours
            lambda: cover_neighbors(parse_periodic_graph(SQUARE_TEXT), CoverVertex(0, (0, 0))),
            ValueError("orbit index 0 out of range"),
            id="cover_orbit",
        ),
    ],
)
def test_guards(call, expected):
    assert_outcome(call, expected)


class TestCoverNeighbors:
    def test_square(self, square):
        got = cover_neighbors(square, CoverVertex(1, (0, 0)))
        assert set(got) == {
            CoverVertex(1, (1, 0)),
            CoverVertex(1, (-1, 0)),
            CoverVertex(1, (0, 1)),
            CoverVertex(1, (0, -1)),
        }

    def test_honeycomb(self, honeycomb):
        got = cover_neighbors(honeycomb, CoverVertex(1, (0, 0)))
        assert set(got) == {
            CoverVertex(2, (0, 0)),
            CoverVertex(2, (1, 0)),
            CoverVertex(2, (0, 1)),
        }

    def test_edgeless(self, edgeless):
        assert cover_neighbors(edgeless, CoverVertex(1, (5,))) == []


class TestBfs:
    @pytest.mark.parametrize(
        "name,origin,depth,expected",
        [
            ("square", 1, 3, (1, 4, 8, 12)),
            ("honeycomb", 1, 3, (1, 3, 6, 9)),
            ("honeycomb", 2, 3, (1, 3, 6, 9)),
            ("edgeless", 1, 2, (1, 0, 0)),
            ("chain", 1, 3, (1, 2, 2, 2)),
            ("three_ring", 1, 4, (1, 2, 2, 2, 2)),
            ("ladder", 1, 3, (1, 3, 4, 4)),
        ],
    )
    def test_known_sequences(self, graphs, name, origin, depth, expected):
        assert bfs_coordination(graphs[name], origin, depth).values == expected

    def test_depth_zero(self, square):
        assert bfs_coordination(square, 1, 0).values == (1,)

    def test_budget_error(self, square):
        with pytest.raises(BudgetExceeded):
            bfs_coordination(square, 1, 50, max_visited=10)

    def test_budget_bounds_held_layers_not_ball(self):
        # the ball to depth 60 holds 295,361 vertices, its last three shells
        # 41,786; the layers span 121**3 = 1,771,561 bits, within both budgets
        pcu = parse_periodic_graph(PCU_TEXT)
        seq = bfs_coordination(pcu, 1, 60, max_visited=41_786)
        assert seq.values[1:] == tuple(4 * k * k + 2 for k in range(1, 61))
        with pytest.raises(BudgetExceeded, match="held more than 41785 "):
            bfs_coordination(pcu, 1, 60, max_visited=41_785)

    def test_budget_bounds_layer_span(self):
        # few vertices, but offsets of 50 make the layers span 3001**2 bits
        g = parse_periodic_graph("dim 2\nvertices 1\nedge 1 1 50 0\nedge 1 1 0 50\n")
        with pytest.raises(BudgetExceeded, match="would span more than"):
            bfs_coordination(g, 1, 30, max_visited=100_000)
        seq = bfs_coordination(g, 1, 30)
        assert seq.values == (1,) + tuple(4 * k for k in range(1, 31))

    def test_span_reaches_only_along_moving_axes(self):
        # a chain declared in dim 6: a cube-shaped span would be 121**6 bits
        g = parse_periodic_graph("dim 6\nvertices 1\nedge 1 1 1 0 0 0 0 0\n")
        assert bfs_coordination(g, 1, 60).values == (1,) + (2,) * 60

    @pytest.mark.parametrize(
        "text,shell",
        [
            (PCU_TEXT, lambda k: 4 * k * k + 2),
            (DIA_TEXT, lambda k: 5 * k * k // 2 + 2),
            (BCU_TEXT, lambda k: 6 * k * k + 2),
        ],
        ids=["pcu", "dia", "bcu"],
    )
    def test_literature_closed_forms(self, text, shell):
        # layer k is held shifted by k times the largest step, so go deep
        g = parse_periodic_graph(text)
        expected = (1,) + tuple(shell(k) for k in range(1, 61))
        for origin in range(1, g.num_orbits + 1):
            assert bfs_coordination(g, origin, 60).values == expected

    @pytest.mark.parametrize(
        "text,origin",
        [
            # only inter-orbit edges at offset zero: the largest step is 0
            ("dim 2\nvertices 3\nedge 1 2 0 0\nedge 2 3 0 0\n", 1),
            ("dim 2\nvertices 3\nedge 1 2 0 0\nedge 2 3 0 0\n", 2),
            # the origin orbit has no edge; the other orbits move far
            ("dim 1\nvertices 2\nedge 2 2 3\n", 1),
            ("dim 2\nvertices 3\nedge 2 2 3 0\nedge 2 3 0 -2\n", 1),
            # the origin's only edge goes to another orbit at offset zero
            ("dim 2\nvertices 2\nedge 1 2 0 0\nedge 2 2 3 1\n", 1),
        ],
        ids=[
            "zero_step_1", "zero_step_2", "edgeless_origin_1d",
            "edgeless_origin_2d", "origin_without_own_step",
        ],
    )
    def test_unmoving_origin_matches_plain_bfs(self, text, origin):
        g = parse_periodic_graph(text)
        start = CoverVertex(origin, (0,) * g.dim)
        assert bfs_coordination(g, origin, 6).values == _plain_bfs(g, start, 6)

    def test_sequence_type_invariant(self):
        with pytest.raises(ValueError):
            CoordinationSequence((2, 1))
        with pytest.raises(ValueError):
            CoordinationSequence((1, -1))

    def test_nonintegral_counts_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            CoordinationSequence((1, 2.5, 3.9))
        assert CoordinationSequence((1, 4.0, 8)).values == (1, 4, 8)


class TestCumulative:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((1, 4, 8, 12), [1, 5, 13, 25]),
            ((1,), [1]),
            ((1, 0, 0), [1, 1, 1]),
        ],
    )
    def test_examples(self, values, expected):
        assert cumulative_counts(CoordinationSequence(values)) == expected


# random small graphs for the structural properties
@st.composite
def graph_and_vertex(draw):
    dim = draw(st.integers(1, 3))
    orbits = draw(st.integers(1, 3))
    n_edges = draw(st.integers(0, 4))
    edges = []
    for _ in range(n_edges):
        s = draw(st.integers(1, orbits))
        t = draw(st.integers(1, orbits))
        offset = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
        if s == t and all(x == 0 for x in offset):
            continue
        edge = canonical_edge_orbit(s, t, offset)
        if edge not in edges:
            edges.append(edge)
    g = PeriodicGraph(dim, orbits, tuple(edges))
    orbit = draw(st.integers(1, orbits))
    shift = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    return g, CoverVertex(orbit, shift)


def _plain_bfs(g, start, depth):
    """Layer sizes of the reference BFS from ``start``."""
    layers = Counter(cover_distances(g, start, depth).values())
    return tuple(layers[d] for d in range(depth + 1))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph_and_vertex())
    def test_bfs_matches_plain_bfs_on_cover_neighbors(self, gv):
        g, v = gv
        assert bfs_coordination(g, v.orbit, 5).values == _plain_bfs(g, v, 5)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_vertex())
    def test_neighbor_symmetry(self, gv):
        g, v = gv
        for w in cover_neighbors(g, v):
            assert v in cover_neighbors(g, w)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_vertex(), st.integers(-4, 4))
    def test_translation_equivariance(self, gv, h):
        g, v = gv
        shift = tuple(h for _ in range(g.dim))
        moved = CoverVertex(v.orbit, tuple(a + b for a, b in zip(v.shift, shift)))
        expected = {
            CoverVertex(w.orbit, tuple(a + b for a, b in zip(w.shift, shift)))
            for w in cover_neighbors(g, v)
        }
        assert set(cover_neighbors(g, moved)) == expected

    @settings(max_examples=30, deadline=None)
    @given(graph_and_vertex(), st.randoms())
    def test_bfs_deterministic_under_edge_order(self, gv, rng):
        g, v = gv
        edges = list(g.edge_orbits)
        rng.shuffle(edges)
        permuted = PeriodicGraph(g.dim, g.num_orbits, tuple(edges))
        a = bfs_coordination(g, v.orbit, 4, max_visited=200_000)
        b = bfs_coordination(permuted, v.orbit, 4, max_visited=200_000)
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(graph_and_vertex())
    def test_partial_sums_monotone(self, gv):
        g, v = gv
        seq = bfs_coordination(g, v.orbit, 5, max_visited=200_000)
        sums = cumulative_counts(seq)
        assert sums[0] == 1
        assert all(a <= b for a, b in zip(sums, sums[1:]))
