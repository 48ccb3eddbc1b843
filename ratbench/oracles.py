"""Answers computed apart from ratcoord, and the checkers that use them.

Nothing here imports ratcoord: the graph files are parsed again, cover BFS
is done again, and the generating functions come from the literature
(Conway and Sloane, "Low-dimensional lattices VII: coordination sequences",
Proc. R. Soc. A 1997; Grosse-Kunstleve, Brunner and Sloane, Acta Cryst. A52,
1996).  Every checker returns a list of problems; an empty list means the
answer passed.
"""

from __future__ import annotations

from collections import Counter


def parse_graph(text):
    """(dim, number of orbits, [(source, target, offset)]) of a graph file."""
    dim = orbits = None
    edges = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "dim":
            dim = int(tokens[1])
        elif tokens[0] == "vertices":
            orbits = int(tokens[1])
        elif tokens[0] == "edge":
            edges.append((int(tokens[1]), int(tokens[2]), tuple(map(int, tokens[3:]))))
        else:
            raise ValueError(f"unknown directive {tokens[0]!r}")
    return dim, orbits, edges


def _packing(graph, depth):
    """Maps between cover vertices (orbit, cell) and distinct integers.

    A cell within ``depth`` steps of the origin has coordinates in
    [-reach, reach]; read in base 2 * reach + 1 with balanced digits, and
    times the orbit count, it becomes one integer, so that a step along an
    edge is a single integer addition.
    """
    dim, orbits, edges = graph
    reach = depth * max([1] + [abs(x) for _, _, offset in edges for x in offset])
    width = 2 * reach + 1

    def pack(orbit, cell):
        return orbit - 1 + orbits * sum(c * width**i for i, c in enumerate(cell))

    def unpack(vertex):
        code, orbit = divmod(vertex, orbits)
        cell = []
        for _ in range(dim):
            digit = (code + reach) % width - reach
            cell.append(digit)
            code = (code - digit) // width
        return orbit + 1, tuple(cell)

    return pack, unpack


def bfs_layers(graph, origin, depth):
    """Sets of packed cover vertices at each distance 0..depth, and unpack.

    In an undirected graph a neighbour of a vertex at distance k lies at
    distance k - 1, k or k + 1, so the next layer is the neighbourhood of
    the current one minus the current and the previous layer.
    """
    dim, orbits, edges = graph
    pack, unpack = _packing(graph, depth)
    zero = (0,) * dim
    steps = [[] for _ in range(orbits)]
    for source, target, offset in edges:
        step = pack(target, offset) - pack(source, zero)
        steps[source - 1].append(step)
        steps[target - 1].append(-step)
    previous, layers = set(), [{pack(origin, zero)}]
    while len(layers) <= depth:
        current = layers[-1]
        reached = {v + step for v in current for step in steps[v % orbits]}
        layers.append(reached - current - previous)
        previous = current
    return layers, unpack


def bfs_sequence(graph, origin, depth):
    layers, _ = bfs_layers(graph, origin, depth)
    return [len(layer) for layer in layers]


# ---------------------------------------------------------------------------
# literature closed forms

def poly_mul(*polys):
    out = [1]
    for poly in polys:
        prod = [0] * (len(out) + len(poly) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(poly):
                prod[i + j] += a * b
        out = prod
    return out


def series(num, den, n):
    """First n + 1 coefficients of num/den (den[0] must be 1)."""
    coeffs = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else 0
        c -= sum(den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        coeffs.append(c)
    return coeffs


ONE_PLUS = [1, 1]
ONE_MINUS = [1, -1]

# net -> (numerator, denominator, c_k for k >= 1)
LITERATURE = {
    "sql": (poly_mul(ONE_PLUS, ONE_PLUS), poly_mul(ONE_MINUS, ONE_MINUS), lambda k: 4 * k),
    "hcb": ([1, 1, 1], poly_mul(ONE_MINUS, ONE_MINUS), lambda k: 3 * k),
    "hxl": ([1, 4, 1], poly_mul(ONE_MINUS, ONE_MINUS), lambda k: 6 * k),
    "pcu": (
        poly_mul(ONE_PLUS, ONE_PLUS, ONE_PLUS),
        poly_mul(ONE_MINUS, ONE_MINUS, ONE_MINUS),
        lambda k: 4 * k * k + 2,
    ),
    "dia": (
        [1, 2, 4, 2, 1],
        poly_mul(ONE_MINUS, ONE_MINUS, [1, 0, -1]),
        lambda k: 5 * k * k // 2 + 2,
    ),
    "bcu": (
        poly_mul(ONE_PLUS, [1, 4, 1]),
        poly_mul(ONE_MINUS, ONE_MINUS, ONE_MINUS),
        lambda k: 6 * k * k + 2,
    ),
}


def k_formula(net, depth):
    formula = LITERATURE[net][2]
    return [1] + [formula(k) for k in range(1, depth + 1)]


def same_gf(gf, num, den):
    """True iff gf (a {"num", "den"} dict) equals num/den as a fraction."""
    return poly_mul(gf["num"], den) == poly_mul(num, gf["den"])


# ---------------------------------------------------------------------------
# checkers

def check_report(report, net, depth, oracle_sequence, methods):
    """Problems with one `gf --json` or `verify --json` report.

    ``methods`` names the generating functions the report must carry
    ("fit", "symbolic"); each must equal the literature closed form.
    """
    problems = []
    num, den, _ = LITERATURE[net]
    sequence = report.get("sequence")
    if sequence != oracle_sequence:
        problems.append(f"{net}: sequence differs from the oracle BFS")
    if sequence != k_formula(net, depth):
        problems.append(f"{net}: sequence differs from the k-formula")
    for method in ("fit", "symbolic"):
        gf = report.get(f"gf_{method}")
        if method not in methods:
            if gf is not None:
                problems.append(f"{net}: unexpected gf_{method}")
        elif gf is None or not same_gf(gf, num, den):
            problems.append(f"{net}: gf_{method} is not the literature closed form")
    if report.get("symbolic_status") != "ok":
        problems.append(f"{net}: symbolic_status {report.get('symbolic_status')}")
    pairs = ["bfs_vs_fit"]
    if "symbolic" in methods:  # only `verify` runs the symbolic path here
        pairs += ["bfs_vs_symbolic", "fit_vs_symbolic", "oracle_vs_bfs_cumulative"]
    agreement = report.get("agreement", [])
    if sorted(entry["pair"] for entry in agreement) != sorted(pairs):
        problems.append(f"{net}: agreement entries {[e['pair'] for e in agreement]}")
    problems.extend(
        f"{net}: agreement {entry['pair']} not ok"
        for entry in agreement
        if not entry["ok"]
    )
    return problems


def target_distances(graph, origin, target, depth):
    """BFS distance from (origin, 0) to every cell of the target orbit."""
    layers, unpack = bfs_layers(graph, origin, depth)
    distances = {}
    for k, layer in enumerate(layers):
        for vertex in layer:
            orbit, cell = unpack(vertex)
            if orbit == target:
                distances[cell] = k
    return distances


def check_decomposition(result, distances, radius):
    """Problems with a decomposition of {(cell, y) : dist(cell) <= y}.

    Enumerates the coefficient tuples of every part up to last coordinate
    2 * radius and requires every point to be hit exactly once across all
    parts, the points to be exactly {(cell, y) : dist(cell) <= y <= 2r},
    and the result to be certified.
    """
    y_max = 2 * radius
    hits = Counter()
    for part in result["parts"]:
        base = tuple(part["base"])
        periods = [tuple(p) for p in part["periods"]]
        if any(p[-1] < 1 for p in periods):
            return [f"part {part} has a period that does not advance y"]
        stack = [(0, base)]
        while stack:
            j, point = stack.pop()
            if point[-1] > y_max:
                continue
            if j == len(periods):
                hits[point] += 1
                continue
            stack.append((j + 1, point))
            stack.append((j, tuple(a + b for a, b in zip(point, periods[j]))))
    problems = []
    if not result.get("certified"):
        problems.append("decomposition is not certified")
    repeated = sum(1 for count in hits.values() if count > 1)
    if repeated:
        problems.append(f"{repeated} points are hit more than once")
    expected = {
        cell + (y,) for cell, d in distances.items() for y in range(d, y_max + 1)
    }
    if set(hits) != expected:
        problems.append(
            f"{len(set(hits) - expected)} extra and "
            f"{len(expected - set(hits))} missing points up to y = {y_max}"
        )
    return problems
