"""Hot-loop kernels: cover BFS, run enumeration and box enumeration.

Everything is pure Python; there is no compiled backend.  Run enumeration
keeps one partial run per (state, visited-state mask, Parikh vector) and
returns (mask, vector) profiles.  Cover BFS is word-parallel: a layer is
one integer per orbit, a bitset over the cells in reach, and an edge moves
a whole layer with one shift.  Box enumeration has two kernels: the points
of a whole semilinear set come from a word-parallel sweep of the same kind
(a level per value of a functional, a period moves a whole level with one
shift), and the points of one linear set with their representation counts
come from a search over partial sums.  The public modules call these
kernels through this module's attributes (``_kernels.name``), so a wrapper
installed here sees every call.  All indices here are 0-based (the public
modules use 1-based orbits/states and convert).
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from operator import add, floordiv, mod, mul

from .errors import BudgetExceeded


def bfs_layer_counts(neighbor_specs, origin_orbit, depth, max_visited):
    """Layer sizes of breadth-first search on the infinite cover.

    ``neighbor_specs[orbit]`` is a sequence of ``(target_orbit, offset)``
    pairs with both traversal directions already expanded.  Returns the list
    ``[c_0, ..., c_depth]`` of vertices at each exact distance from
    ``(origin_orbit, 0)``.  A layer is one integer per orbit, a bitset over
    cells: axis i has reach ``r_i = depth * max |offset_i|`` (no vertex
    within ``depth`` steps lies further out) and place value
    ``prod_{j<i} (2 r_j + 1)``, and bit c is the cell whose mixed-radix
    index is c.  An edge then shifts a whole layer by a constant; since no
    coordinate within ``depth`` steps leaves its reach, no shift carries
    one axis into the next.  In an undirected graph layer k + 1 is the
    neighbourhood of layer k minus layers k and k - 1, so only three layers
    are held; more than ``max_visited`` held vertices raise
    BudgetExceeded.  So does a span of more than
    ``64 * max_visited`` bits over all orbits, before any layer is built:
    a layer then costs at most 8 bytes per budgeted vertex.
    """
    orbits = len(neighbor_specs)
    reaches = [
        depth * max(map(abs, axis))
        for axis in zip(*(offset for spec in neighbor_specs for _, offset in spec))
    ]
    place, places = 1, []
    for reach in reaches:
        places.append(place)
        place *= 2 * reach + 1
    if place * orbits > 64 * max_visited:
        raise BudgetExceeded(
            f"BFS layers would span more than {64 * max_visited} bits"
        )
    steps = [
        [(target, sum(map(mul, offset, places))) for target, offset in spec]
        for spec in neighbor_specs
    ]
    previous = [0] * orbits
    current = [0] * orbits
    current[origin_orbit] = 1 << sum(map(mul, reaches, places))
    counts = [1]
    for _ in range(depth):
        nxt = [0] * orbits
        for layer, spec in zip(current, steps):
            for target, step in spec:
                nxt[target] |= layer << step if step >= 0 else layer >> -step
        nxt = [n & ~(c | p) for n, c, p in zip(nxt, current, previous)]
        size = sum(n.bit_count() for n in nxt)
        if sum(counts[-2:]) + size > max_visited:
            raise BudgetExceeded(f"BFS held more than {max_visited} cover vertices")
        counts.append(size)
        previous, current = current, nxt
    return counts


def accepting_run_profiles(
    num_states, sources, targets, outputs, initial, final, max_len, max_entries
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

    zero = (0,) * (len(outputs[0]) if outputs else 0)
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


def linear_point_counts(base, periods, lo, hi, weights, max_nodes):
    """Points ``base + sum n_j * p_j`` in ``[lo, hi]`` with their multiplicities.

    Returns ``{point: number of coefficient tuples giving it}``; a period
    listed twice counts as two.  The periods are added in sorted order: a
    state is a partial sum, and period j expands every state, one
    multiplicity at a time.  Equal partial sums merge and add their
    multiplicities, so the counts stay exact.

    ``weights`` is an integer functional with ``weights . p >= 1`` for every
    period (or None); it rides along as one more coordinate, bounded above
    by its largest value on the box, unless it is a unit vector: that
    coordinate already gives the same bounds.  Each multiplicity of period j is
    bounded by every coordinate where the periods after it share a sign:
    the rest of the sum only moves that coordinate one way, so
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
    periods = sorted(map(tuple, periods))
    base = tuple(base)
    if weights is not None and sorted(weights) == [0] * (len(weights) - 1) + [1]:
        weights = None  # a unit functional repeats a coordinate and its bounds
    strip = weights is not None
    if strip:
        def weigh(vector):
            return (*vector, sum(map(mul, weights, vector)))

        periods = list(map(weigh, periods))
        base = weigh(base)
        lo, hi = (
            (*lo, sum(w * (l if w > 0 else h) for w, l, h in zip(weights, lo, hi))),
            (*hi, sum(w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi))),
        )
    states = {}  # {partial sum: multiplicity}
    # a base past the box where every period moves it further away is out
    if all(
        (x <= h or any(p[i] < 0 for p in periods))
        and (x >= l or any(p[i] > 0 for p in periods))
        for i, (x, l, h) in enumerate(zip(base, lo, hi))
    ):
        states[base] = 1
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
    if strip:
        return {point[:-1]: mult for point, mult in states.items()}
    return states


def linear_points_in_box(base, periods, lo, hi, weights, max_nodes):
    """The points of :func:`linear_point_counts`, as a set."""
    return set(linear_point_counts(base, periods, lo, hi, weights, max_nodes))


def linear_points_by_sweep(parts, lo, hi, weights, max_nodes):
    """Points of a union of ``(base, periods)`` parts in ``[lo, hi]``, as a set.

    ``weights`` is as in :func:`linear_point_counts`.  A level
    is one integer per value of the functional, a bitset over cells: a
    unit functional is the level axis itself and the other axes index the
    cells; any other functional slices all axes by ``weights . x``; with no
    functional there is one level.  Cells lie in the hull of the box and
    the bases, widened on every cell axis by ``2 * d * M`` (M the largest
    period coordinate): by the Steinitz lemma every box point of a part has
    an ordering of its periods whose partial sums stay that close to the
    segment from base to point, so no point is lost.  Each cell axis has
    guard cells as wide as the largest period step along it, so a shift
    that leaves the region lands on a guard cell (no carry reaches a valid
    one) and one AND with the valid cells clears it.  Parts with the same
    periods share one sweep, with each base set in its own level; going up
    once, level k is its bases OR every period's shift of level
    ``k - weights . p``, and periods the functional does not advance
    (only without one) are closed to a fixpoint within the level.  The
    union over parts, masked to the box, is decoded level by level.  A
    base past the box where no period of its part turns back is dropped.
    More than ``64 * max_nodes`` bits over the levels raise BudgetExceeded
    before any level is built.
    """
    dim = len(lo)
    if weights is None:
        weights = (0,) * dim

    def level(vector):
        return sum(map(mul, weights, vector))

    top = sum(w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi))
    groups: dict = {}  # {set of nonzero periods: bases}
    for base, periods in parts:
        periods = frozenset(filter(any, map(tuple, periods)))
        base = tuple(base)
        if level(base) > top or any(
            x > h and min([p[i] for p in periods], default=0) >= 0
            or x < l and max([p[i] for p in periods], default=0) <= 0
            for i, (x, l, h) in enumerate(zip(base, lo, hi))
        ):
            continue
        groups.setdefault(periods, []).append(base)
    if not groups:
        return set()
    bases = [base for group in groups.values() for base in group]
    periods = set().union(*groups)

    # a unit functional is the level axis; the other axes index the cells
    unit = sorted(weights) == [0] * (dim - 1) + [1]
    level_axis = weights.index(1) if unit else None
    axes = [i for i in range(dim) if i != level_axis]
    first = min(map(level, bases))
    levels = top - first + 1
    slack = 2 * dim * max([0] + [abs(x) for p in periods for x in p])
    lows, widths, strides = [], [], []
    for i in axes:
        coordinates = [base[i] for base in bases]
        lows.append(min(lo[i], *coordinates) - slack)
        widths.append(max(hi[i], *coordinates) + slack + 1 - lows[-1])
        strides.append(widths[-1] + max([0] + [abs(p[i]) for p in periods]))
    place, places = 1, []
    for stride in strides:
        places.append(place)
        place *= stride
    if place * levels > 64 * max_nodes:
        raise BudgetExceeded(
            f"box levels would span more than {64 * max_nodes} bits"
        )
    valid = _cell_block([(0, width - 1) for width in widths], places)

    def shift(vector):
        return sum([vector[i] * pl for i, pl in zip(axes, places)])

    origin = sum(map(mul, lows, places))  # the shift of the region's low corner

    union = [0] * levels
    for group, group_bases in groups.items():
        layers = [0] * levels
        for base in group_bases:
            layers[level(base) - first] |= 1 << shift(base) - origin
        climbs = [(level(p), shift(p)) for p in group if level(p)]
        flats = [shift(p) for p in group if not level(p)]
        for k, layer in enumerate(layers):
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
            union[k] |= layer
        del layers

    box = _cell_block(
        [(lo[i] - low, hi[i] - low) for i, low in zip(axes, lows)], places
    )
    points = set()
    for k, layer in enumerate(union):
        if unit and first + k < lo[level_axis]:
            continue
        layer &= box
        if not layer:
            continue
        # bit j is character j of the reversed binary string, so the runs of
        # zeros between ones give the set bits; then one digit per cell axis
        gaps = bin(layer)[:1:-1].split("1")
        gaps.pop()
        index = list(map(add, accumulate(map(len, gaps)), count()))
        columns = []
        for low, stride in zip(lows, strides):
            columns.append(map(add, map(mod, index, repeat(stride)), repeat(low)))
            index = list(map(floordiv, index, repeat(stride)))
        if unit:
            columns.insert(level_axis, repeat(first + k, len(gaps)))
        points.update(zip(*columns) if columns else [()])
    return points


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
