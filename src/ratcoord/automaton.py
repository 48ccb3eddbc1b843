"""Vector-output NFAs and a constructive Parikh-image computation.

Transitions emit integer vectors; the Parikh image of a run is the sum of
the emitted vectors, and the Parikh image of the automaton is the set of
Parikh images over all accepting runs (the empty run counts when some state
is both initial and final).

The image is computed per set of visited states (Kopczynski and To, "Parikh
images of grammars: complexity and applications", LICS 2010): cutting every
repeated state out of each stretch between two first visits reduces an
accepting run to one that visits the same states, has at most
``num_states * (num_states - 1)`` transitions, and differs from the original
by elementary circuits through those states; the circuits become the
periods.  The run-enumeration oracle provides the ground truth this
construction is tested against: it searches every run up to a length bound,
keyed on (state, vector) only, with its own kernel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import add

from . import _kernels
from ._exactlinalg import integral
from .errors import BudgetExceeded
from .periodic_graph import PeriodicGraph, _neighbor_specs
from .semilinear import LinearSet, SemilinearSet, _positive_functional

ParikhVector = tuple[int, ...]


@dataclass(frozen=True)
class VectorNFA:
    """Finite automaton whose transitions output integer vectors.

    States are 1-based.  The transition list may contain repeats; the set of
    distinct transitions is what all computations consume.
    """

    out_dim: int
    num_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.out_dim < 1:
            raise ValueError("out_dim must be positive")
        if self.num_states < 1:
            raise ValueError("num_states must be positive")
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        for state in self.initial | self.final:
            if not (1 <= state <= self.num_states):
                raise ValueError(f"state {state} out of range")
        normalized = []
        for source, output, target in self.transitions:
            output = integral(output, "outputs")
            if len(output) != self.out_dim:
                raise ValueError(f"output {output} has wrong arity")
            if not (1 <= source <= self.num_states and 1 <= target <= self.num_states):
                raise ValueError(f"transition {(source, output, target)} out of range")
            normalized.append((source, output, target))
        object.__setattr__(self, "transitions", tuple(normalized))

    @property
    def distinct_transitions(self):
        return tuple(sorted(set(self.transitions)))


def build_coordination_nfa(
    g: PeriodicGraph, origin_orbit: int, target_orbit: int
) -> VectorNFA:
    """Automaton whose Parikh image is the set of (cell, length-bound) pairs.

    One state per vertex orbit; each traversal direction of an edge orbit
    (offset from the source to the target, as in the cover BFS) is a
    transition with output (offset, 1); every state gets a waiting
    self-loop with output (0, ..., 0, 1).  A run from the origin to
    the target orbit of length y then witnesses a path of length at most y
    ending in the cell given by the first d output coordinates.
    """
    for orbit in (origin_orbit, target_orbit):
        if not (1 <= orbit <= g.num_orbits):
            raise ValueError(f"orbit index {orbit} out of range")
    transitions = [
        (source + 1, offset + (1,), target + 1)
        for source, spec in enumerate(_neighbor_specs(g))
        for target, offset in spec
    ]
    stay = (0,) * g.dim + (1,)
    transitions += [(state, stay, state) for state in range(1, g.num_orbits + 1)]
    return VectorNFA(
        out_dim=g.dim + 1,
        num_states=g.num_orbits,
        initial=frozenset({origin_orbit}),
        final=frozenset({target_orbit}),
        transitions=tuple(transitions),
    )


def _kernel_args(a: VectorNFA):
    """The automaton as the run kernels take it, 0-based."""
    distinct = a.distinct_transitions
    return (
        a.num_states,
        [s - 1 for s, _, _ in distinct],
        [t - 1 for _, _, t in distinct],
        [output for _, output, _ in distinct],
        [s - 1 for s in sorted(a.initial)],
        [s - 1 for s in sorted(a.final)],
        a.out_dim,
    )


def run_parikh_oracle(
    a: VectorNFA, max_len: int, max_entries: int = 5_000_000
) -> set[ParikhVector]:
    """Exact set of Parikh images of accepting runs of length <= max_len.

    Exhaustive over runs, deduplicated on (state, accumulated vector) at
    the shortest run reaching each pair, whose continuations include those
    of every longer one, so the set of Parikh images is exact.  Its kernel
    is not the one ``parikh_image`` uses.  Raises BudgetExceeded when the
    search holds more than ``max_entries`` (state, vector) pairs or its
    bitsets would span more than ``64 * max_entries`` bits.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return _kernels.accepting_run_vectors(*_kernel_args(a), max_len, max_entries)


def _elementary_circuits(num_states, transitions, cap):
    """Elementary circuits as (mask of visited states, sum of outputs) pairs.

    Each circuit visits pairwise distinct states and is anchored at its
    smallest state, so every circuit appears exactly once; parallel
    transitions yield distinct circuits.
    """
    zero = (0,) * len(transitions[0][1]) if transitions else ()
    by_source = defaultdict(list)
    for source, output, target in transitions:
        by_source[source].append((output, target))
    circuits = []

    def dfs(anchor, state, mask, vec):
        for output, nxt in by_source[state]:
            step = tuple(map(add, vec, output))
            if nxt == anchor:
                if len(circuits) >= cap:
                    raise BudgetExceeded(
                        f"more than {cap} elementary circuits"
                    )
                circuits.append((mask, step))
            elif nxt > anchor and not mask >> (nxt - 1) & 1:
                dfs(anchor, nxt, mask | 1 << (nxt - 1), step)

    for anchor in range(1, num_states + 1):
        dfs(anchor, anchor, 1 << (anchor - 1), zero)
    return circuits


# run-enumeration states and elementary circuits parikh_image may visit
PARIKH_MAX_ENTRIES = 2_000_000
PARIKH_CYCLE_CAP = 100_000


def parikh_image(a: VectorNFA) -> SemilinearSet:
    """Semilinear set equal to the Parikh image of the automaton.

    For every set S of states visited by some accepting run: the bases are
    the Parikh vectors of accepting runs that visit exactly S and have at
    most ``num_states * (num_states - 1)`` transitions, and the periods are
    the Parikh vectors of elementary circuits through states of S only.
    Bases that are another base plus a period are dropped (their linear set
    is contained in the other's); this is the only pruning and it never
    changes the union.

    The construction is exponential in the number of states and intended
    for small automata; it raises BudgetExceeded beyond
    ``PARIKH_MAX_ENTRIES`` enumeration states or ``PARIKH_CYCLE_CAP``
    circuits.
    """
    n = a.num_states
    bases_by_states: dict[int, set] = defaultdict(set)
    args = (*_kernel_args(a), n * (n - 1), PARIKH_MAX_ENTRIES)
    for mask, parikh in _kernels.accepting_run_profiles(*args):
        bases_by_states[mask].add(parikh)
    circuits = _elementary_circuits(n, a.distinct_transitions, PARIKH_CYCLE_CAP)

    parts = []
    zero = (0,) * a.out_dim
    for states in sorted(bases_by_states):
        periods = sorted(
            {vec for mask, vec in circuits if mask & ~states == 0 and vec != zero}
        )
        bases = bases_by_states[states]
        if periods:
            weights = _positive_functional(tuple(periods), a.out_dim)
            if weights is not None:
                # a base reachable from another base by adding periods is
                # redundant; chains bottom out because each period strictly
                # increases the functional, so checking against the full base
                # set (not just kept ones) is sound
                all_bases = set(bases)
                bases = {
                    base
                    for base in bases
                    if not any(
                        tuple(x - y for x, y in zip(base, p)) in all_bases
                        for p in periods
                    )
                }
        parts.extend(LinearSet(base, tuple(periods)) for base in sorted(bases))
    return SemilinearSet(tuple(dict.fromkeys(parts)))
