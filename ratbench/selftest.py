"""Self-tests of the checkers in oracles.py: each must pass a right answer
and reject a corrupted one (a wrong coefficient, a dropped part, a
duplicated part).  The benchmark runs them before it measures anything;
they also run alone:

    python3 ratbench/selftest.py
"""

from __future__ import annotations

import copy
import os
import sys

import oracles

CHAIN = oracles.parse_graph("dim 1\nvertices 1\nedge 1 1 1\n")
# {(x, y) : |x| <= y} as two disjoint unambiguous cones
CHAIN_DECOMPOSITION = {
    "parts": [
        {"base": [0, 0], "periods": [[1, 1], [0, 1]]},
        {"base": [-1, 1], "periods": [[-1, 1], [0, 1]]},
    ],
    "certified": True,
}


def _report(net, depth):
    num, den, _ = oracles.LITERATURE[net]
    pairs = ["bfs_vs_fit", "bfs_vs_symbolic", "fit_vs_symbolic", "oracle_vs_bfs_cumulative"]
    return {
        "sequence": oracles.k_formula(net, depth),
        "gf_fit": {"num": list(num), "den": list(den)},
        "gf_symbolic": {"num": list(num), "den": list(den)},
        "symbolic_status": "ok",
        "agreement": [{"pair": pair, "ok": True} for pair in pairs],
    }


def _corrupt(value, edit):
    value = copy.deepcopy(value)
    edit(value)
    return value


def report_cases():
    right = _report("hcb", 12)
    wrong = {
        "wrong sequence coefficient": lambda r: r["sequence"].__setitem__(5, 16),
        "wrong gf_fit coefficient": lambda r: r["gf_fit"]["num"].__setitem__(1, 2),
        "wrong gf_symbolic coefficient": lambda r: r["gf_symbolic"]["den"].__setitem__(2, 2),
        "dropped agreement entry": lambda r: r["agreement"].pop(),
        "duplicated agreement entry": lambda r: r["agreement"].append(r["agreement"][0]),
        "failed agreement entry": lambda r: r["agreement"][1].__setitem__("ok", False),
        "symbolic failure": lambda r: r.__setitem__("symbolic_status", "budget_exceeded"),
    }
    sequence = oracles.bfs_sequence(
        oracles.parse_graph(open(_net_path("hcb"), encoding="utf-8").read()), 1, 12
    )
    check = lambda r: oracles.check_report(r, "hcb", 12, sequence, ("fit", "symbolic"))
    return check, right, wrong


def decomposition_cases():
    distances = oracles.target_distances(CHAIN, 1, 1, 8)
    right = CHAIN_DECOMPOSITION
    wrong = {
        "wrong coefficient": lambda d: d["parts"][1]["periods"][0].__setitem__(0, -2),
        "dropped part": lambda d: d["parts"].pop(),
        "duplicated part": lambda d: d["parts"].append(d["parts"][0]),
        "not certified": lambda d: d.__setitem__("certified", False),
    }
    check = lambda d: oracles.check_decomposition(d, distances, 4)
    return check, right, wrong


def _net_path(net):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "nets", f"{net}.graph")


def run_self_tests():
    """Names of the self-tests that failed (an empty list when all pass)."""
    failures = []
    for net, (num, den, _) in oracles.LITERATURE.items():
        if oracles.series(num, den, 12) != oracles.k_formula(net, 12):
            failures.append(f"{net}: closed form and k-formula disagree")
        graph = oracles.parse_graph(open(_net_path(net), encoding="utf-8").read())
        if oracles.bfs_sequence(graph, 1, 12) != oracles.k_formula(net, 12):
            failures.append(f"{net}: oracle BFS and k-formula disagree")
    for check, right, wrong in (report_cases(), decomposition_cases()):
        if check(right):
            failures.append(f"right answer rejected: {check(right)}")
        for name, edit in wrong.items():
            if not check(_corrupt(right, edit)):
                failures.append(f"corrupted answer passed: {name}")
    return failures


if __name__ == "__main__":
    failed = run_self_tests()
    for line in failed:
        print("FAIL", line)
    print("self-tests:", "failed" if failed else "passed")
    sys.exit(1 if failed else 0)
