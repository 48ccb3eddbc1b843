"""Exact coordination sequences of periodic graphs and proofs that their
generating functions are rational.

The pipeline: a periodic graph is turned into a vector-output finite
automaton whose Parikh image encodes all bounded-length reachability facts;
that image is a semilinear set, whose first-distance shell is decomposed
into disjoint unambiguous linear sets; each part has a closed-form rational
generating function, and their sum is the generating function of the
coordination sequence.  Every stage is cross-checked against brute-force
oracles (cover BFS, run enumeration, box enumeration), and all arithmetic is
exact.
"""

from .automaton import (
    ParikhVector,
    VectorNFA,
    build_coordination_nfa,
    parikh_image,
    run_parikh_oracle,
)
from .cli import (
    PipelineReport,
    cross_verify,
    pipeline_coordination_gf,
    symbolic_coordination_gf,
)
from .errors import BudgetExceeded, DecompositionError
from .genfunc import (
    NotQuasiPolynomialError,
    QuasiPolynomial,
    RationalGF,
    fit_rational,
    gf_to_json,
    gf_unambiguous_linear,
    gf_unambiguous_sum,
    series_coeffs,
    to_quasi_polynomial,
)
from .periodic_graph import (
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
from .semilinear import (
    AmbiguousWitness,
    LinearSet,
    SemilinearSet,
    Unambiguous,
    check_unambiguous,
    count_representations,
    decompose_shell,
    disambiguate,
    enumerate_in_box,
    linear_set_from_json,
    linear_set_to_json,
    member,
    semilinear_from_json,
    semilinear_to_json,
    slice_counts,
    validate_decomposition,
)

__version__ = "0.1.0"

# every kernel is pure Python; the name stays for callers that report it
kernel_backend = "python"

__all__ = [
    "AmbiguousWitness",
    "BudgetExceeded",
    "CoordinationSequence",
    "CoverVertex",
    "DecompositionError",
    "EdgeOrbit",
    "LinearSet",
    "NotQuasiPolynomialError",
    "ParikhVector",
    "ParseError",
    "PeriodicGraph",
    "PipelineReport",
    "QuasiPolynomial",
    "RationalGF",
    "SemilinearSet",
    "Unambiguous",
    "VectorNFA",
    "bfs_coordination",
    "build_coordination_nfa",
    "canonical_edge_orbit",
    "check_unambiguous",
    "count_representations",
    "cover_neighbors",
    "cross_verify",
    "cumulative_counts",
    "decompose_shell",
    "disambiguate",
    "enumerate_in_box",
    "fit_rational",
    "gf_to_json",
    "gf_unambiguous_linear",
    "gf_unambiguous_sum",
    "kernel_backend",
    "linear_set_from_json",
    "linear_set_to_json",
    "member",
    "parikh_image",
    "parse_periodic_graph",
    "pipeline_coordination_gf",
    "run_parikh_oracle",
    "semilinear_from_json",
    "semilinear_to_json",
    "series_coeffs",
    "slice_counts",
    "symbolic_coordination_gf",
    "to_quasi_polynomial",
    "validate_decomposition",
]
