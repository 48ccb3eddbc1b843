"""Hot-loop kernels: cover BFS, run enumeration and box enumeration.

Everything is pure Python; there is no compiled backend.  Run enumeration
for the Parikh image keeps one partial run per (state, visited-state mask,
Parikh vector) and returns (mask, vector) profiles; the oracle's own kernel
keys on (state, vector) alone.  Both keep the first, shortest run to a key,
which loses no continuation, and count keys against their budget.  Cover
BFS and the oracle's kernel are word-parallel: a layer is one integer per
orbit or state, a bitset over the cells or vectors in reach, and an edge or
transition moves a whole layer with one shift.  Cover BFS sizes its box by
the walks of at most ``depth`` edges, holds each layer above its own floor
per orbit, halves the index where orbit colours fix the parity of a layer's
cells, and budgets held vertices and box span.  Box enumeration sweeps a
:class:`BoxGrid` of the same kind (a level per value of a functional, a
period moves a whole level with one shift, and the first cell axis has the
largest place value, so a level's bits run in the lexicographic order of
its points).  The grids are built in ``semilinear``, where every whole-set
question is one sweep: ``disambiguate`` sweeps its input and candidate
cones (each from its base's grid index), certifies by popcount, decodes
only the bases it chooses; the doubled-box check compares two sets'
levels, and ``enumerate_in_box`` decodes one union.  A search over
partial sums gives the points of one linear set with their representation
counts, for counting, membership of parts with a functional and
``validate_decomposition``; it and ``enumerate_in_box`` share one test for
a base past the box.  The public modules call these kernels through this
module's attributes (``_kernels.name``), so a wrapper installed here sees
every call.  All indices here are 0-based (the public modules use 1-based
orbits/states and convert).
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from operator import add, floordiv, mod, mul, or_

from .errors import BudgetExceeded


def bfs_layer_counts(neighbor_specs, origin_orbit, depth, max_visited):
    """Layer sizes of breadth-first search on the infinite cover.

    ``neighbor_specs[orbit]`` is a sequence of ``(target_orbit, offset)``
    pairs with both traversal directions already expanded.  Returns the list
    ``[c_0, ..., c_depth]`` of vertices at each exact distance from
    ``(origin_orbit, 0)``.  A layer is one integer per orbit, a bitset over
    the cells of a box, and an edge moves a whole layer with one shift.
    Walk extents: axis i of the box reaches ``r_i``, the largest coordinate
    i over walks of at most ``depth`` edges in the quotient from any orbit
    (one max-plus pass; a reversed walk negates its sum, so ``-r_i`` is the
    least), and has place value ``prod_{j<i} (2 r_j + 1)``.  Cell c has the
    mixed-radix index of c, so an edge steps every index by a constant.
    Parity: if the orbits of the origin's component have colours f, 0 at
    the origin, with ``step + f(s) + f(t)`` odd on every edge from s to t,
    every cell x of layer k of orbit t has ``x - k - f(t)`` even.  Floors:
    layer k of orbit t is held above its own floor ``F_k(t)``, where ``F_0``
    is f (0 off the component) and ``F_{k+1}(t)`` is the least of
    ``F_k(t) - 1`` (an idle step) and ``F_k(s) + step`` over the edges into
    t (one min-plus step per layer), so every move and every removal is a
    left shift.  With colours, ``F_k(t) - k - f(t)`` is even too: bit
    ``(x - F_k(t)) / 2`` holds cell x, and layer k + 1 meets only layer
    k - 1.  Without, bit ``x - F_k(t)`` does.  In an undirected graph layer
    k + 1 is the neighbourhood of layer k minus layers k and k - 1, so only
    three layers are held; more than ``max_visited`` held vertices raise
    BudgetExceeded.  So does a box of more than ``64 * max_visited`` cells
    over all orbits, before any layer is built: a layer then costs at most
    8 bytes per budgeted vertex.
    """
    orbits = len(neighbor_specs)
    dim = max((len(offset) for spec in neighbor_specs for _, offset in spec), default=0)
    # (source, target, coordinate) of each edge on each axis, flat over
    # (orbit, axis); a self-loop that does not rise never beats an idle step
    rises = [
        (s * dim + i, t * dim + i, x)
        for s, spec in enumerate(neighbor_specs) for t, offset in spec
        for i, x in enumerate(offset) if x > 0 or s != t
    ]
    reach = [0] * orbits * dim
    for _ in range(depth):
        longer = reach[:]
        for a, b, x in rises:
            if reach[a] + x > longer[b]:
                longer[b] = reach[a] + x
        reach = longer
    *places, place = accumulate(
        [1, *(2 * max(reach[i::dim]) + 1 for i in range(dim))], mul
    )
    if place * orbits > 64 * max_visited:
        raise BudgetExceeded(
            f"BFS layers would span more than {64 * max_visited} bits"
        )
    steps = [
        [(target, sum(map(mul, offset, places))) for target, offset in spec]
        for spec in neighbor_specs
    ]
    colour, halve = [None] * orbits, 1
    colour[origin_orbit] = 0
    component = [origin_orbit]
    for s in component:
        for t, step in steps[s]:
            if colour[t] is None:
                colour[t] = (colour[s] + step + 1) % 2
                component.append(t)
            halve &= colour[s] + step + colour[t]
    previous, current = [0] * orbits, [0] * orbits
    current[origin_orbit] = 1
    below = low = [c or 0 for c in colour]  # the floors of layers k - 1 and k
    counts = [1]
    for _ in range(depth):
        layers, floors = [], []
        for t, spec in enumerate(steps):
            floor = low[t] - 1
            for s, step in spec:  # the edges into t reverse those out of it
                if low[s] - step < floor:
                    floor = low[s] - step
            seen = previous[t] << (below[t] - floor >> halve)
            if not halve:
                seen |= current[t] << low[t] - floor
            layer = seen
            for s, step in spec:
                layer |= current[s] << (low[s] - step - floor >> halve)
            layers.append(layer ^ seen)
            floors.append(floor)
        previous, current, below, low = current, layers, low, floors
        size = sum(map(int.bit_count, current))
        if sum(counts[-2:]) + size > max_visited:
            raise BudgetExceeded(f"BFS held more than {max_visited} cover vertices")
        counts.append(size)
    return counts


def accepting_run_profiles(
    num_states, sources, targets, outputs, initial, final, out_dim, max_len, max_entries
):
    """Profiles (visited-state mask, Parikh vector) of accepting runs.

    A run is a walk of at most ``max_len`` transitions from an initial to a
    final state; its profile records which states it visited, the start
    state included (as a bitmask), and the sum of the output vectors.  Two
    partial runs that end in the same state with equal profiles admit the
    same continuations up to the length bound of the shorter one.  The
    frontier grows one transition per round, so the first visit to a
    (state, profile) key is its shortest, and every continuation of a later
    visit is one of the first: deduplicating on the key preserves the
    profile set exactly.
    """
    out_by_state = [[] for _ in range(num_states)]
    for source, target, output in zip(sources, targets, outputs):
        out_by_state[source].append((target, 1 << target, output))
    final_set = set(final)

    zero = (0,) * out_dim
    frontier = [(s, 1 << s, zero) for s in sorted(set(initial))]
    visited = set(frontier)
    accepted = {(mask, zero) for s, mask, _ in frontier if s in final_set}
    for _ in range(max_len):
        nxt = []
        for state, mask, parikh in frontier:
            for target, bit, output in out_by_state[state]:
                key = (target, mask | bit, tuple(map(add, parikh, output)))
                if key in visited:
                    continue
                if len(visited) >= max_entries:
                    raise BudgetExceeded(
                        f"run enumeration exceeded {max_entries} states"
                    )
                visited.add(key)
                nxt.append(key)
                if target in final_set:
                    accepted.add(key[1:])
        frontier = nxt
    return accepted


def accepting_run_vectors(
    num_states, sources, targets, outputs, initial, final, out_dim, max_len, max_entries
):
    """Parikh vectors of the accepting runs of at most ``max_len`` transitions.

    Word-parallel like cover BFS: axis i of a mixed-radix grid spans the sums
    of up to ``max_len`` outputs (so no step carries into the next axis),
    each state holds one bitset over it, and a transition moves a state's new
    vectors with one shift.  A round keeps only the (state, vector) pairs not
    reached before: the first run to reach a pair is its shortest, and every
    continuation of a later one is one of the first, so the final states'
    bits are exactly the accepting runs' vectors.  More than ``max_entries``
    pairs raise BudgetExceeded, and so does a span of more than
    ``64 * max_entries`` bits over all states, before any search.
    """
    axes = list(zip((0,) * out_dim, *outputs))  # each output coordinate, and 0
    lows = [max_len * min(axis) for axis in axes]
    widths = [max_len * (max(axis) - min(axis)) + 1 for axis in axes]
    *places, span = accumulate([1, *widths], mul)
    if span * num_states > 64 * max_entries:
        raise BudgetExceeded(f"run vectors would span more than {64 * max_entries} bits")
    moves = [[] for _ in range(num_states)]
    for source, target, output in zip(sources, targets, outputs):
        moves[source].append((target, sum(map(mul, output, places))))
    zero = -sum(map(mul, lows, places))  # the bit of the zero vector
    frontier = [(state in initial) << zero for state in range(num_states)]
    reached, entries = [0] * num_states, 0
    for k in range(max_len + 1):
        entries += sum(map(int.bit_count, frontier))
        if entries > max_entries:
            raise BudgetExceeded(f"run enumeration exceeded {max_entries} states")
        reached = list(map(or_, reached, frontier))
        nxt = [0] * num_states
        for layer, spec in zip(frontier, moves):
            for target, step in spec if layer and k < max_len else ():
                nxt[target] |= layer << step if step >= 0 else layer >> -step
        frontier = [layer & ~seen for layer, seen in zip(nxt, reached)]
    accepted = 0
    for state in final:
        accepted |= reached[state]
    return set(zip(*_columns(accepted, lows, widths, places)))


def linear_point_counts(base, periods, lo, hi, weights, max_nodes):
    """Points ``base + sum n_j * p_j`` in ``[lo, hi]`` with their multiplicities.

    Returns ``{point: number of coefficient tuples giving it}``; a period
    listed twice counts as two.  A state is a partial sum, and period j
    expands every state, one multiplicity at a time.  Equal partial sums
    merge and add their multiplicities, so the counts stay exact in any
    order of the periods.  Periods with a negative coordinate come first,
    then the larger step of the functional, so that the sign bounds below
    apply from the first periods on.

    ``weights`` is an integer functional with ``weights . p >= 1`` for every
    period (or None); it rides along as one more coordinate, bounded by its
    range over the box (see :func:`_with_functional`).  Each multiplicity of
    period j is bounded by every coordinate where the periods after it share
    a sign: the rest of the sum only moves that coordinate one way, so
    ``partial + n * p_j`` must already be on the box's side of it.  That
    gives an upper bound on n where p_j moves the coordinate towards that
    side's limit and a lower bound where it moves it away.  With no period
    left every coordinate is bounded both ways, so every point returned is
    in the box without a final filter.  A state with no upper bound falls
    back to the node budget, so the search always terminates (possibly with
    BudgetExceeded).  Nodes count the base plus every partial sum
    generated, before equal ones merge.
    """
    nodes = 1  # the base
    if nodes > max_nodes:
        raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
    base, periods, lo, hi = _with_functional(weights, tuple(base), periods, lo, hi)
    periods.sort(key=lambda p: (min(p) >= 0, -p[-1], p))  # p[-1]: the functional
    states = {} if _past_box(base, periods, lo, hi) else {base: 1}
    for j, period in enumerate(periods):
        rest = periods[j + 1 :]
        # each bound is (a + s * partial[i]) // q: (hi - x) // q or (x - lo) // q
        upper, lower = [], []
        for i, p in enumerate(period):
            if p and all(q[i] >= 0 for q in rest):
                (upper if p > 0 else lower).append((i, hi[i], -1, abs(p)))
            if p and all(q[i] <= 0 for q in rest):
                (upper if p < 0 else lower).append((i, -lo[i], 1, abs(p)))
        nxt = {}
        for cur, mult in states.items():
            start = 0
            if lower:
                start = max(0, *[-((a + s * cur[i]) // q) for i, a, s, q in lower])
            if upper:
                stop = min([(a + s * cur[i]) // q for i, a, s, q in upper])
            else:  # no structural bound: the budget backstops
                stop = start + max_nodes
            if start > stop:
                continue
            nodes += stop - start + 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
            point = cur
            if start:
                point = tuple([x + start * p for x, p in zip(cur, period)])
            for _ in range(stop - start):
                nxt[point] = nxt.get(point, 0) + mult
                point = tuple(map(add, point, period))
            nxt[point] = nxt.get(point, 0) + mult
        states = nxt
    return {point[:-1]: mult for point, mult in states.items()}


def linear_points_in_box(index, periods, grid):
    """Box points of ``base + N periods``, one bitset per level of ``grid``.

    ``index`` is the base's (level index, bit), which the greedy search
    holds, and ``periods`` are among the grid's periods.  The cone is swept
    up from the base's level and masked to the box; nothing is decoded.
    """
    k, bit = index
    layers = [0] * grid.levels
    layers[k] = 1 << bit
    return grid.in_box(grid.sweep(layers, periods, k))


def linear_sets_in_box(parts, grid):
    """Box points of a union of ``(base, periods)`` parts, one bitset per level.

    Every base is a point of ``grid``'s region and every period is a tuple
    among its periods.  Parts with the same periods share one sweep, with
    each base set in its own level; the union over parts is masked to the
    box.
    """
    groups: dict = {}  # {set of periods: levels holding the bases}
    for base, periods in parts:
        layers = groups.setdefault(frozenset(periods), [0] * grid.levels)
        k, bit = grid.index(base)
        layers[k] |= 1 << bit
    union = [0] * grid.levels
    while groups:  # a swept group is dropped before the next is swept
        periods, layers = groups.popitem()
        for k, layer in enumerate(grid.sweep(layers, periods)):
            union[k] |= layer
    return grid.in_box(union)


class BoxGrid:
    """The levels and cells of a bit-parallel sweep over a box.

    A level is one integer per value of the functional ``weights`` (as in
    :func:`linear_point_counts`), a bitset over cells: a unit functional is
    the level axis itself and the other axes index the cells; any other
    functional slices all axes by ``weights . x``; with no functional there
    is one level.  The levels run from the lowest base to the box's top.
    Cells lie in the hull of the box and the bases, widened on each cell
    axis by ``2 * m * M``, m the number of cell axes and M the largest
    absolute cell-axis coordinate of a period.  By the Steinitz lemma
    (Grinberg and Sevastyanov's bound of m in m dimensions), every box
    point of a cone has an ordering of its periods whose partial sums, cut
    to the cell axes, stay that close to the segment from base to point.
    The level coordinate needs no widening: every period raises the level,
    so the partial sums stay in the level range.  With a unit functional
    that leaves d - 1 cell axes; otherwise all d axes are cell axes.  Each
    cell axis has guard cells as wide as the largest period step along it,
    so a shift that leaves the region lands on a guard cell (no carry
    reaches a valid one) and one AND with ``valid`` clears it; ``box``
    holds the cells of the box.  The first cell axis has the largest place
    value, so bit order within a level is lexicographic order and (level,
    bit) order is that of ``(weights . x, x)``: the greedy search walks the
    points in it unsorted.  More than ``64 * max_nodes`` bits over the
    levels raise BudgetExceeded before any level is built.
    """

    def __init__(self, bases, periods, lo, hi, weights, max_nodes):
        dim = len(lo)
        self.weights = weights = weights if weights is not None else (0,) * dim
        unit = sorted(weights) == [0] * (dim - 1) + [1]
        self.level_axis = weights.index(1) if unit else None
        self.axes = axes = [i for i in range(dim) if i != self.level_axis]
        self.first = min(map(self.level, bases))
        self.levels = _box_top(weights, lo, hi) - self.first + 1
        # with a unit functional the levels under the box hold no box point
        self.below = max(0, lo[self.level_axis] - self.first) if unit else 0
        reach = max([0] + [abs(p[i]) for p in periods for i in axes])
        slack = 2 * len(axes) * reach
        self.lows, self.strides, widths = [], [], []
        for i in axes:
            coordinates = [base[i] for base in bases]
            self.lows.append(min(lo[i], *coordinates) - slack)
            widths.append(max(hi[i], *coordinates) + slack + 1 - self.lows[-1])
            self.strides.append(widths[-1] + max([0] + [abs(p[i]) for p in periods]))
        *places, place = accumulate([1, *reversed(self.strides)], mul)
        self.places = places[::-1]
        if place * self.levels > 64 * max_nodes:
            raise BudgetExceeded(
                f"box levels would span more than {64 * max_nodes} bits"
            )
        self.moves = {p: (self.level(p), self.shift(p)) for p in periods}
        self.origin = sum(map(mul, self.lows, self.places))  # the low corner
        self.valid = _cell_block([(0, width - 1) for width in widths], self.places)
        self.box = _cell_block(
            [(lo[i] - low, hi[i] - low) for i, low in zip(axes, self.lows)],
            self.places,
        )

    def level(self, vector):
        return sum(map(mul, self.weights, vector))

    def shift(self, vector):
        """The bit distance a vector moves a cell."""
        return sum([vector[i] * place for i, place in zip(self.axes, self.places)])

    def index(self, point):
        """(level index, bit) of a point of the region."""
        return self.level(point) - self.first, self.shift(point) - self.origin

    def sweep(self, layers, periods, start=0):
        """Close ``layers`` under adding the periods, in place, from level ``start``.

        Going up once, level k gains every period's shift of level
        ``k - weights . p`` and loses the cells off the region; periods the
        functional does not advance (only without one) are closed to a
        fixpoint within the level.  Levels under ``start`` must be empty, and
        the periods must be among the grid's.
        """
        moves = [self.moves[p] for p in periods]
        climbs = [(rise, step) for rise, step in moves if rise]
        flats = [step for rise, step in moves if not rise]
        valid = self.valid
        for k in range(start, self.levels):
            layer = layers[k]
            for rise, step in climbs:
                if rise <= k and (below := layers[k - rise]):
                    layer |= below << step if step >= 0 else below >> -step
            layer &= valid
            frontier = layer
            while frontier and flats:
                grown = 0
                for step in flats:
                    grown |= frontier << step if step >= 0 else frontier >> -step
                frontier = grown & valid & ~layer
                layer |= frontier
            layers[k] = layer
        return layers

    def in_box(self, layers):
        """The levels masked to the box."""
        below, box = self.below, self.box
        return [0] * below + [layer & box for layer in layers[below:]]

    def decode(self, layers):
        """The points of box-masked levels as tuples, in (level, bit) order.

        A level is read when reached: bits cleared in it before are skipped.
        """
        for k, layer in enumerate(layers):
            if not layer:
                continue
            columns = _columns(layer, self.lows, self.strides, self.places)
            if self.level_axis is not None:
                columns.insert(self.level_axis, repeat(self.first + k, layer.bit_count()))
            yield from zip(*columns) if columns else [()]


def _columns(layer, lows, strides, places):
    """One iterator per axis over the coordinates of the set bits of
    ``layer``: bit j has digit ``j // place % stride + low``."""
    # bit j is character j of the reversed binary string, so the runs of
    # zeros between ones give the set bits
    gaps = bin(layer)[:1:-1].split("1")
    gaps.pop()
    index = list(map(add, accumulate(map(len, gaps)), count()))
    return [
        map(add, map(mod, map(floordiv, index, repeat(place)), repeat(stride)), repeat(low))
        for low, stride, place in zip(lows, strides, places)
    ]


def _box_top(weights, lo, hi):
    """The largest value of ``weights . x`` over the box."""
    return sum(w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi))


def _with_functional(weights, base, periods, lo, hi):
    """Base, periods and box with ``weights . x`` appended as a coordinate
    that ranges over its values on the box (0 when ``weights`` is None)."""
    weights = weights if weights is not None else (0,) * len(lo)
    base, *periods = [(*v, sum(map(mul, weights, v))) for v in (base, *periods)]
    bottom = -_box_top([-w for w in weights], lo, hi)
    return base, periods, (*lo, bottom), (*hi, _box_top(weights, lo, hi))


def _past_box(base, periods, lo, hi):
    """True if the base is past ``[lo, hi]`` on a coordinate that no period
    turns back on, so that ``base + N periods`` has no point in the box."""
    return any(
        x > h and all(p[i] >= 0 for p in periods)
        or x < l and all(p[i] <= 0 for p in periods)
        for i, (x, l, h) in enumerate(zip(base, lo, hi))
    )


def _cell_block(ranges, places):
    """Bitset of the cells whose digit on each axis lies in its (first, last)."""
    block = 1
    for (start, stop), place in zip(ranges, places):
        copies, tiled, done = stop - start + 1, 0, 0
        size = 1
        while copies:
            if copies & 1:
                tiled |= block << done * place
                done += size
            copies >>= 1
            if copies:
                block |= block << size * place
                size *= 2
        block = tiled << start * place
    return block
