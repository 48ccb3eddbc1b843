"""Hot-loop kernels: cover BFS, run enumeration and box enumeration.

Everything is pure Python; there is no compiled backend.  The public modules
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
    ``(origin_orbit, 0)``.  A vertex is one integer: its cell in balanced
    base ``2 * reach + 1`` (no coordinate within ``depth`` steps exceeds
    ``reach``), times the orbit count, plus the orbit; an edge adds a
    constant.  In an undirected graph layer k + 1 is the neighbourhood of
    layer k minus layers k and k - 1, so only three layers are held; more
    than ``max_visited`` held vertices raise BudgetExceeded.
    """
    orbits = len(neighbor_specs)
    reach = depth * max(
        (abs(x) for spec in neighbor_specs for _, offset in spec for x in offset),
        default=0,
    )
    radix = 2 * reach + 1
    steps = [
        [
            target - orbit
            + orbits * sum(x * radix**i for i, x in enumerate(offset))
            for target, offset in spec
        ]
        for orbit, spec in enumerate(neighbor_specs)
    ]
    previous, current = set(), {origin_orbit}
    counts = [1]
    for _ in range(depth):
        nxt = {v + step for v in current for step in steps[v % orbits]}
        nxt -= current
        nxt -= previous
        if len(previous) + len(current) + len(nxt) > max_visited:
            raise BudgetExceeded(f"BFS held more than {max_visited} cover vertices")
        counts.append(len(nxt))
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


def linear_point_counts(bases, periods, lo, hi, weights, max_nodes):
    """Points ``b + sum n_j * periods[j]`` in ``[lo, hi]``, b in ``bases``.

    Returns ``{point: number of (base, coefficient tuple) pairs giving it}``;
    a base listed twice counts twice.  The periods are added one at a time
    to a dict of partial sums; equal partial sums merge and add their
    multiplicities, so subtrees shared between bases or coefficient tuples
    are expanded once and the counts stay exact.

    ``weights`` is an integer functional with ``weights . p >= 1`` for every
    period (or None); it rides along as one more coordinate, bounded above
    by its largest value on the box.  Each multiplicity n_j of a partial sum
    is bounded by every coordinate where periods[j + 1:] share a sign: the
    rest of the sum only moves that coordinate one way, so
    ``partial + n_j * periods[j]`` must already be on the box's side of it.
    That gives an upper bound on n_j where periods[j] moves the coordinate
    towards that side's limit and a lower bound where it moves it away.
    After the last period every coordinate is bounded both ways, so every
    point returned is in the box without a final filter.  A level with no
    upper bound falls back to the node budget, so the search always
    terminates (possibly with BudgetExceeded).  Nodes count the bases plus
    every partial sum generated, before equal ones merge.
    """
    if weights is not None:
        def weigh(vector):
            return (*vector, sum(map(mul, weights, vector)))

        bases = [weigh(base) for base in bases]
        periods = [weigh(period) for period in periods]
        lo, hi = (
            (*lo, sum(w * (l if w > 0 else h) for w, l, h in zip(weights, lo, hi))),
            (*hi, sum(w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi))),
        )
    dim = len(lo)
    k = len(periods)
    # nonneg[j][i]: periods[j:] are all >= 0 in coordinate i (nonpos: <= 0)
    nonneg = [[True] * dim for _ in range(k + 1)]
    nonpos = [[True] * dim for _ in range(k + 1)]
    for j in range(k - 1, -1, -1):
        for i in range(dim):
            nonneg[j][i] = nonneg[j + 1][i] and periods[j][i] >= 0
            nonpos[j][i] = nonpos[j + 1][i] and periods[j][i] <= 0

    nodes = len(bases)
    if nodes > max_nodes:
        raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
    # a base past the box where every period moves it further away is out
    level: dict = {}
    for base in map(tuple, bases):
        if all(
            (not nonneg[0][i] or x <= hi[i]) and (not nonpos[0][i] or x >= lo[i])
            for i, x in enumerate(base)
        ):
            level[base] = level.get(base, 0) + 1
    for j, period in enumerate(periods):
        # each bound is (a + s * partial[i]) // q: (hi - x) // q or (x - lo) // q
        upper, lower = [], []
        for i, p in enumerate(period):
            if p and nonneg[j + 1][i]:
                (upper if p > 0 else lower).append((i, hi[i], -1, abs(p)))
            if p and nonpos[j + 1][i]:
                (upper if p < 0 else lower).append((i, -lo[i], 1, abs(p)))
        nxt: dict = {}
        for cur, mult in level.items():
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
        level = nxt
    if weights is not None:
        return {point[:-1]: mult for point, mult in level.items()}
    return level


def linear_points_in_box(bases, periods, lo, hi, weights, max_nodes):
    """The points of :func:`linear_point_counts`, as a set."""
    return set(linear_point_counts(bases, periods, lo, hi, weights, max_nodes))
