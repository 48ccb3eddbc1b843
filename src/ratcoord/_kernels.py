"""Hot-loop kernels: cover BFS, run enumeration and box enumeration.

Everything is pure Python; there is no compiled backend.  Cover BFS is
word-parallel: a layer is one integer per orbit, a bitset over the cells in
reach, and an edge moves a whole layer with one shift.  The public modules
call these kernels through this module's attributes (``_kernels.name``), so
a wrapper installed here sees every call.  All indices here are 0-based (the
public modules use 1-based orbits/states and convert).
"""

from __future__ import annotations

from operator import add, mul

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
    """Profiles (visited-state mask, length, Parikh vector) of accepting runs.

    A run is a walk of at most ``max_len`` transitions from an initial to a
    final state; its profile records which states it visited, the start
    state included (as a bitmask), its length, and the sum of the output
    vectors.  Two partial runs that end in the same state with equal
    profiles admit the same continuations, so deduplicating on (state,
    profile) preserves the profile set exactly.
    """
    out_by_state = [[] for _ in range(num_states)]
    for source, target, output in zip(sources, targets, outputs):
        out_by_state[source].append((target, 1 << target, output))
    final_set = set(final)

    zero = (0,) * (len(outputs[0]) if outputs else 0)
    frontier = [(s, 1 << s, zero) for s in sorted(set(initial))]
    visited = {(s, mask, 0, zero) for s, mask, _ in frontier}
    accepted = {(mask, 0, zero) for s, mask, _ in frontier if s in final_set}
    for length in range(1, max_len + 1):
        nxt = []
        for state, mask, parikh in frontier:
            for target, bit, output in out_by_state[state]:
                mask2 = mask | bit
                parikh2 = tuple(map(add, parikh, output))
                key = (target, mask2, length, parikh2)
                if key in visited:
                    continue
                if len(visited) >= max_entries:
                    raise BudgetExceeded(
                        f"run enumeration exceeded {max_entries} states"
                    )
                visited.add(key)
                nxt.append((target, mask2, parikh2))
                if target in final_set:
                    accepted.add((mask2, length, parikh2))
        frontier = nxt
    return accepted


def linear_point_counts(parts, lo, hi, weights, max_nodes):
    """Points ``b + sum n_j * p_j`` in ``[lo, hi]`` over ``(b, (p_1, ...))`` parts.

    Returns ``{point: number of (part, coefficient tuple) pairs giving it}``;
    a part listed twice counts twice.  The periods of all parts form one
    sorted universe (a period repeated within a part is two entries).  A
    state is a partial sum keyed by the mask of universe periods it still
    has to add; period j expands the states whose mask holds j, one
    multiplicity at a time, into the mask without j, and passes the others
    through.  Equal partial sums under equal masks merge and add their
    multiplicities, so parts whose remaining periods coincide share their
    expansion and the counts stay exact.  A part whose periods are sorted
    adds them in its own order, so one pass over such parts generates at
    most the partial sums of one pass per part.

    ``weights`` is an integer functional with ``weights . p >= 1`` for every
    period (or None); it rides along as one more coordinate, bounded above
    by its largest value on the box, unless it is a unit vector: that
    coordinate already gives the same bounds.  Each multiplicity of period j is
    bounded by every coordinate where the periods still to add after it
    share a sign: the rest of the sum only moves that coordinate one way,
    so ``partial + n * p_j`` must already be on the box's side of it.  That
    gives an upper bound on n where p_j moves the coordinate towards that
    side's limit and a lower bound where it moves it away.  With no period
    left every coordinate is bounded both ways, so every point returned is
    in the box without a final filter.  A state with no upper bound falls
    back to the node budget, so the search always terminates (possibly with
    BudgetExceeded).  Nodes count the parts plus every partial sum
    generated, before equal ones merge.
    """
    nodes = len(parts)
    if nodes > max_nodes:
        raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
    # bases by their mask over (period, copy number) in order of first
    # appearance; a period repeated within a part takes one entry per copy
    index: dict = {}
    grouped: dict = {}
    for base, periods in parts:
        mask = 0
        for period in periods:
            n = 0
            while mask >> (j := index.setdefault((tuple(period), n), len(index))) & 1:
                n += 1
            mask |= 1 << j
        grouped.setdefault(mask, []).append(base)
    # the universe is sorted, so a part whose periods are sorted adds them in
    # its own order; moved[j] is the sorted bit of first-appearance entry j
    entries = sorted(index)
    moved = [0] * len(entries)
    for j, key in enumerate(entries):
        moved[index[key]] = 1 << j
    universe = [period for period, _ in entries]

    if weights is not None and sorted(weights) == [0] * (len(weights) - 1) + [1]:
        weights = None  # a unit functional repeats a coordinate and its bounds
    strip = weights is not None
    if strip:
        def weigh(vector):
            return (*vector, sum(map(mul, weights, vector)))

        universe = [weigh(period) for period in universe]
        lo, hi = (
            (*lo, sum(w * (l if w > 0 else h) for w, l, h in zip(weights, lo, hi))),
            (*hi, sum(w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi))),
        )
    # bit j of negative[i] (positive[i]): universe[j] is < 0 (> 0) in coordinate i
    negative = [0] * len(lo)
    positive = [0] * len(lo)
    for j, period in enumerate(universe):
        for i, x in enumerate(period):
            if x < 0:
                negative[i] |= 1 << j
            elif x > 0:
                positive[i] |= 1 << j

    level: dict = {}  # {mask of periods still to add: {partial sum: multiplicity}}
    for old, bases in grouped.items():
        mask = 0
        for bit in moved:
            if old & 1:
                mask |= bit
            old >>= 1
        states = level[mask] = {}
        for base in map(weigh, bases) if strip else map(tuple, bases):
            # a base past the box where every period moves it further away is out
            if all(
                (mask & negative[i] or x <= hi[i])
                and (mask & positive[i] or x >= lo[i])
                for i, x in enumerate(base)
            ):
                states[base] = states.get(base, 0) + 1

    counts = None
    for j, period in enumerate(universe):
        if 0 in level:
            counts = _collect(counts, level.pop(0), strip)
        bit = 1 << j
        for mask in [m for m in level if m & bit]:
            rest = mask ^ bit
            # each bound is (a + s * partial[i]) // q: (hi - x) // q or (x - lo) // q
            upper, lower = [], []
            for i, p in enumerate(period):
                if p and not rest & negative[i]:
                    (upper if p > 0 else lower).append((i, hi[i], -1, abs(p)))
                if p and not rest & positive[i]:
                    (upper if p < 0 else lower).append((i, -lo[i], 1, abs(p)))
            states = level.pop(mask)
            nxt = level.setdefault(rest, {})
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
            del states
    if 0 in level:
        counts = _collect(counts, level.pop(0), strip)
    return {} if counts is None else counts


def _collect(counts, finished, strip):
    """Merge finished partial sums into ``counts`` (None before the first).

    The first finished dict becomes ``counts``; later ones are drained into
    it, so no finished state is held twice.  ``strip`` drops the weight
    coordinate.
    """
    if counts is None:
        if strip:
            return {point[:-1]: mult for point, mult in finished.items()}
        return finished
    while finished:
        point, mult = finished.popitem()
        if strip:
            point = point[:-1]
        counts[point] = counts.get(point, 0) + mult
    return counts


def linear_points_in_box(parts, lo, hi, weights, max_nodes):
    """The points of :func:`linear_point_counts`, as a set."""
    return set(linear_point_counts(parts, lo, hi, weights, max_nodes))
