"""End-to-end pipeline, cross-verification harness, and command line.

The pipeline produces the generating function of a coordination sequence two
independent ways: symbolically (automaton construction, Parikh image, a
disjoint unambiguous cover of the image's first-distance shell certified on
a box and checked on the doubled box, closed formula per part) and by exact
linear-recurrence fitting of the BFS sequence with a predicted verification
window.  Reports carry both artifacts plus pairwise coefficient comparisons,
and serialize to deterministic JSON.

Exit codes: 0 all produced artifacts agree; 2 parse/usage error;
3 coefficient mismatch; 4 no generating function produced (no fit, budget
exhaustion or failed decomposition on every requested path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache

from .automaton import build_coordination_nfa, parikh_image, run_parikh_oracle
from .errors import BudgetExceeded, DecompositionError
from .genfunc import (
    RationalGF,
    gf_to_json,
    gf_unambiguous_linear,  # unused; kept bound for ratbench/tracing.py, which patches it
    gf_unambiguous_sum,
    fit_rational,
    series_coeffs,
)
from .periodic_graph import (
    CoordinationSequence,
    PeriodicGraph,
    bfs_coordination,
    cumulative_counts,
    parse_periodic_graph,
)
from .semilinear import (
    _magnitude,
    decompose_shell,
    disambiguate,
    enumerate_in_box,  # unused; kept bound for ratbench/tracing.py, which patches it
    same_shell_in_box,
    semilinear_from_json,
    semilinear_to_json,
)

# certification box radius = largest image coordinate + DISAMBIG_MARGIN
DISAMBIG_MARGIN = 8
# node and bit budget of every box enumeration on the symbolic path
SYMBOLIC_BUDGET = 5_000_000
# trailing BFS terms a fitted recurrence must predict, not fit
VERIFY_WINDOW = 5
# cumulative counts compared against the run-enumeration oracle
ORACLE_DEPTH = 8


@dataclass(frozen=True)
class PipelineReport:
    graph_id: str
    origin_orbit: int
    bfs_sequence: CoordinationSequence
    gf_fit: RationalGF | None
    gf_symbolic: RationalGF | None
    fit_status: str  # ok | no_fit
    symbolic_status: str  # ok | decomposition_failed | budget_exceeded
    agreement: tuple[dict, ...]

    def all_ok(self) -> bool:
        return all(entry["ok"] for entry in self.agreement)

    def produced_gf(self) -> RationalGF | None:
        return self.gf_fit if self.gf_fit is not None else self.gf_symbolic

    def to_json(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "origin": self.origin_orbit,
            "sequence": list(self.bfs_sequence.values),
            "gf_fit": gf_to_json(self.gf_fit) if self.gf_fit else None,
            "gf_symbolic": (
                gf_to_json(self.gf_symbolic) if self.gf_symbolic else None
            ),
            "fit_status": self.fit_status,
            "symbolic_status": self.symbolic_status,
            "agreement": list(self.agreement),
        }


def symbolic_coordination_gf(g: PeriodicGraph, origin_orbit: int):
    """Coordination-sequence generating function via the automaton route.

    For every target orbit: build the automaton, compute its Parikh image,
    cover the image's first-distance shell (each reachable cell once, at
    its distance) with disjoint unambiguous parts certified on the box of
    radius r = ``largest image coordinate + DISAMBIG_MARGIN``, and check
    that the parts still equal the shell on the doubled box.  If the check
    fails, certify once more at 2r and check at 4r; a second failure
    raises DecompositionError.  Returns the sum over target orbits of the
    closed-formula generating functions of the parts' final-coordinate
    projections: the exact-distance counts, with no (1 - z) step.
    """
    parts = []
    dim = g.dim + 1
    for target in range(1, g.num_orbits + 1):
        nfa = build_coordination_nfa(g, origin_orbit, target)
        image = parikh_image(nfa)
        r = _magnitude(image.parts) + DISAMBIG_MARGIN
        for radius in (r, 2 * r):
            shell = decompose_shell(image, radius, SYMBOLIC_BUDGET)
            wide = (-2 * radius,) * dim, (2 * radius,) * dim
            if same_shell_in_box(image, shell, *wide, SYMBOLIC_BUDGET):
                break
        else:
            raise DecompositionError(
                f"shell decomposition for target orbit {target} fails on the "
                f"doubled box at radius {2 * r} and again at {4 * r}"
            )
        parts += shell.parts
    return gf_unambiguous_sum(parts, dim)


def _compare(name_a, coeffs_a, name_b, coeffs_b, depth):
    mismatch = next(
        (k for k in range(depth + 1) if coeffs_a[k] != coeffs_b[k]), None
    )
    return {
        "pair": f"{name_a}_vs_{name_b}",
        "ok": mismatch is None,
        "first_mismatch": mismatch,
        "depth": depth,
    }


def pipeline_coordination_gf(
    g: PeriodicGraph,
    origin_orbit: int,
    method: str = "both",
    depth: int = 40,
    *,
    graph_id: str = "graph",
) -> PipelineReport:
    """Run the requested pipeline paths and cross-compare their coefficients.

    The fit path fits a recurrence of order at most half the terms outside
    the last ``VERIFY_WINDOW``, which it must then predict.  A path that
    fails records it in its own status (``fit_status``, ``symbolic_status``)
    and does not abort the other path; a path that was not requested keeps
    status ``ok``.
    """
    if method not in ("symbolic", "fit", "both"):
        raise ValueError(f"unknown method {method!r}")
    sequence = bfs_coordination(g, origin_orbit, depth)

    gf_fit = None
    fit_status = "ok"
    if method in ("fit", "both"):
        max_order = max(0, (len(sequence.values) - VERIFY_WINDOW) // 2)
        try:
            gf_fit = fit_rational(sequence.values, max_order, VERIFY_WINDOW)
        except ValueError:  # prefix too short, or no recurrence explains it
            fit_status = "no_fit"

    gf_symbolic = None
    symbolic_status = "ok"
    if method in ("symbolic", "both"):
        try:
            gf_symbolic = symbolic_coordination_gf(g, origin_orbit)
        except DecompositionError:
            symbolic_status = "decomposition_failed"
        except BudgetExceeded:
            symbolic_status = "budget_exceeded"

    artifacts = [("bfs", list(sequence.values))]
    if gf_fit is not None:
        artifacts.append(("fit", series_coeffs(gf_fit, depth)))
    if gf_symbolic is not None:
        artifacts.append(("symbolic", series_coeffs(gf_symbolic, depth)))
    agreement = tuple(
        _compare(name_a, coeffs_a, name_b, coeffs_b, depth)
        for idx, (name_a, coeffs_a) in enumerate(artifacts)
        for name_b, coeffs_b in artifacts[idx + 1 :]
    )
    return PipelineReport(
        graph_id=graph_id,
        origin_orbit=origin_orbit,
        bfs_sequence=sequence,
        gf_fit=gf_fit,
        gf_symbolic=gf_symbolic,
        fit_status=fit_status,
        symbolic_status=symbolic_status,
        agreement=agreement,
    )


def cross_verify(
    g: PeriodicGraph,
    origin_orbit: int,
    depth: int,
    *,
    graph_id: str = "graph",
) -> PipelineReport:
    """Both pipeline paths plus the run-enumeration oracle slice check.

    The oracle check compares, for every distance bound y up to ylim, the
    number of automaton-reachable cells against the cumulative BFS counts;
    ylim, the check's ``depth``, is the largest y <= ``min(ORACLE_DEPTH,
    depth)`` at which every target's oracle fits its budget (y = 0 always
    does).  Mismatches are report content, not errors.
    """
    report = pipeline_coordination_gf(
        g, origin_orbit, method="both", depth=depth, graph_id=graph_id
    )
    nfas = [build_coordination_nfa(g, origin_orbit, t) for t in range(1, g.num_orbits + 1)]
    for ylim in range(min(ORACLE_DEPTH, depth), -1, -1):
        oracle_cumulative = [0] * (ylim + 1)
        try:
            for nfa in nfas:
                for vector in run_parikh_oracle(nfa, ylim):
                    oracle_cumulative[vector[-1]] += 1
            break
        except BudgetExceeded:
            if ylim == 0:
                raise
    bfs_cumulative = cumulative_counts(report.bfs_sequence)[: ylim + 1]
    entry = _compare("oracle", oracle_cumulative, "bfs_cumulative", bfs_cumulative, ylim)
    return replace(report, agreement=report.agreement + (entry,))


# ---------------------------------------------------------------------------
# command line

def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load_graph(path: str) -> tuple[PeriodicGraph, str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_periodic_graph(text), os.path.basename(path)


def _print_report(report: PipelineReport, as_json: bool) -> None:
    if as_json:
        print(_dump_json(report.to_json()))
        return
    print("sequence:", " ".join(str(v) for v in report.bfs_sequence.values))
    if report.gf_fit is not None:
        print("gf_fit:", report.gf_fit)
    if report.gf_symbolic is not None:
        print("gf_symbolic:", report.gf_symbolic)
    print("fit_status:", report.fit_status)
    print("symbolic_status:", report.symbolic_status)
    for entry in report.agreement:
        status = "ok" if entry["ok"] else f"mismatch@{entry['first_mismatch']}"
        print(f"agreement {entry['pair']}: {status} (depth {entry['depth']})")


def _report_exit_code(report: PipelineReport) -> int:
    if not report.all_ok():
        return 3
    if report.produced_gf() is None:
        return 4
    return 0


def _cmd_bfs(args) -> int:
    g, graph_id = _load_graph(args.file)
    sequence = bfs_coordination(g, args.origin, args.depth)
    if args.json:
        print(
            _dump_json(
                {
                    "graph_id": graph_id,
                    "origin": args.origin,
                    "sequence": list(sequence.values),
                }
            )
        )
    else:
        print(" ".join(str(v) for v in sequence.values))
    return 0


def _cmd_gf(args) -> int:
    g, graph_id = _load_graph(args.file)
    report = pipeline_coordination_gf(
        g, args.origin, method=args.method, depth=args.depth, graph_id=graph_id
    )
    _print_report(report, args.json)
    return _report_exit_code(report)


def _cmd_verify(args) -> int:
    g, graph_id = _load_graph(args.file)
    report = cross_verify(g, args.origin, args.depth, graph_id=graph_id)
    _print_report(report, args.json)
    return _report_exit_code(report)


def _cmd_decompose(args) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    with open(args.json_input, encoding="utf-8") as handle:
        data = json.load(handle)
    original = semilinear_from_json(data)
    result = disambiguate(
        original, box_radius=args.box_radius, budget=args.budget
    )
    print(_dump_json(semilinear_to_json(result)))
    return 0


@cache  # parse_args does not mutate it, so in-process calls share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratcoord",
        description=(
            "Exact coordination sequences of periodic graphs and their "
            "rational generating functions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = argparse.ArgumentParser(add_help=False)  # what every graph command reads
    graph.add_argument("file")
    graph.add_argument("--origin", type=int, required=True)

    p_bfs = sub.add_parser("bfs", parents=[graph], help="coordination sequence by cover BFS")
    p_bfs.add_argument("--depth", type=int, required=True)
    p_bfs.add_argument("--json", action="store_true")
    p_bfs.set_defaults(func=_cmd_bfs)

    p_gf = sub.add_parser("gf", parents=[graph], help="generating function of the sequence")
    p_gf.add_argument(
        "--method", choices=("symbolic", "fit", "both"), default="both"
    )
    p_gf.add_argument("--depth", type=int, default=40)
    p_gf.add_argument("--json", action="store_true")
    p_gf.set_defaults(func=_cmd_gf)

    p_verify = sub.add_parser(
        "verify", parents=[graph], help="run both pipelines plus the enumeration oracle"
    )
    p_verify.add_argument("--depth", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_semi = sub.add_parser("semilinear", help="semilinear-set utilities")
    semi_sub = p_semi.add_subparsers(dest="subcommand", required=True)
    p_dec = semi_sub.add_parser(
        "decompose", help="certified disjoint-unambiguous decomposition"
    )
    p_dec.add_argument("--json-input", required=True)
    p_dec.add_argument("--box-radius", type=int, default=None)
    p_dec.add_argument("--budget", type=int, default=5_000_000)
    p_dec.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError and JSONDecodeError too
        print(f"ratcoord: error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, DecompositionError) as exc:
        print(f"ratcoord: {exc}", file=sys.stderr)
        return 4
