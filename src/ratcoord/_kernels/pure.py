"""Pure-Python kernels: cover BFS, run enumeration and box enumeration.

``linear_points_in_box`` has a compiled twin in ``_speed.pyx`` that must
produce bit-identical results; the test suite checks the two backends
against each other.  The other kernels exist only here.  All indices here
are 0-based (the public modules use 1-based orbits/states and convert).
"""

from __future__ import annotations

from operator import add, le, mul

from ..errors import BudgetExceeded


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


def linear_point_counts(base, periods, lo, hi, weights, max_nodes):
    """Points ``base + sum n_j * periods[j]`` in ``[lo, hi]``, with multiplicity.

    Returns ``{point: number of coefficient tuples giving it}``.  The periods
    are added one at a time to a dict of partial sums; equal partial sums
    merge and add their multiplicities, so shared subtrees are expanded once
    and the counts stay exact.

    ``weights`` is an integer functional with ``weights . p >= 1`` for every
    period (or None).  Bounds on each multiplicity come from coordinates
    where all remaining periods share a sign, and from the weight functional;
    levels with no derivable bound fall back to the node budget, so the
    search always terminates (possibly with BudgetExceeded).  One node is
    counted for the base and one for every partial sum generated, before
    equal ones merge: the count of the recursive compiled twin.
    """
    dim = len(base)
    k = len(periods)
    # suffix_nonneg[j][i]: periods[j:] are all >= 0 in coordinate i
    suffix_nonneg = [[True] * dim for _ in range(k + 1)]
    suffix_nonpos = [[True] * dim for _ in range(k + 1)]
    for j in range(k - 1, -1, -1):
        for i in range(dim):
            suffix_nonneg[j][i] = suffix_nonneg[j + 1][i] and periods[j][i] >= 0
            suffix_nonpos[j][i] = suffix_nonpos[j + 1][i] and periods[j][i] <= 0
    if weights is not None:
        whi = sum(
            w * (h if w > 0 else l) for w, l, h in zip(weights, lo, hi)
        )

    if max_nodes < 1:  # the base alone is one node
        raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
    level = {tuple(base): 1}
    nodes = 1
    for j, period in enumerate(periods):
        # a point past the box where every remaining period moves it further
        # away cannot come back
        past_hi = [i for i in range(dim) if suffix_nonneg[j][i]]
        past_lo = [i for i in range(dim) if suffix_nonpos[j][i]]
        rising = [
            i for i in range(dim) if period[i] > 0 and suffix_nonneg[j + 1][i]
        ]
        falling = [
            i for i in range(dim) if period[i] < 0 and suffix_nonpos[j + 1][i]
        ]
        if weights is not None:
            wperiod = sum(w * p for w, p in zip(weights, period))
        nxt: dict = {}
        for cur, mult in level.items():
            if any(cur[i] > hi[i] for i in past_hi) or any(
                cur[i] < lo[i] for i in past_lo
            ):
                continue
            bounds = [(hi[i] - cur[i]) // period[i] for i in rising]
            bounds += [(cur[i] - lo[i]) // -period[i] for i in falling]
            if weights is not None:
                room = whi - sum(map(mul, weights, cur))
                bounds.append(room // wperiod)
            # no structural bound: the budget backstops
            bound = min(bounds) if bounds else max_nodes
            if bound < 0:
                continue
            nodes += bound + 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"box enumeration exceeded {max_nodes} nodes")
            point = cur
            for _ in range(bound + 1):
                nxt[point] = nxt.get(point, 0) + mult
                point = tuple(map(add, point, period))
        level = nxt
    return {
        point: mult
        for point, mult in level.items()
        if all(map(le, lo, point)) and all(map(le, point, hi))
    }


def linear_points_in_box(base, periods, lo, hi, weights, max_nodes):
    """The points of :func:`linear_point_counts`, as a set."""
    return set(linear_point_counts(base, periods, lo, hi, weights, max_nodes))
