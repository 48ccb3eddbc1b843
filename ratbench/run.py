#!/usr/bin/env python3
"""End-to-end benchmark of ratcoord, run from the root of a checkout:

    python3 ratbench/run.py --workload symbolic_nets --seed 1 --seconds 10 --trace 0

Each operation is one call of the command-line entry point
``ratcoord.cli.main`` in this process, with its standard output captured
and parsed.  A run repeats whole rounds of its workload's operations until
``--seconds`` have passed (at least one round), then checks every output
against answers computed apart from ratcoord (oracles.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

With ``--trace 1`` the run instead runs each operation once, traced, reports
the per-layer metrics instead of the end-to-end ones, prints the tracing
overhead, and writes the spans and the per-layer table under ratbench/out/.

The corpora are fixed files, so every seed gives the same inputs; ``--seed``
is accepted for the calling convention and changes nothing.

The pure-Python kernel backend is pinned (RATCOORD_PURE=1).  The program is
imported from ``src/`` of this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import selftest
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WORKLOADS = ("symbolic_nets", "bfs_deep", "decompose_images")
SYMBOLIC_NETS = ("sql", "hcb", "hxl", "pcu")
BFS_NETS = ("pcu", "dia", "bcu")
IMAGE_TARGETS = (1, 2)  # target orbits of the 4-offset net, origin orbit 1
# One round runs the operations in this order.  Short operations recur,
# spread over the round, so that the median time of each covers most of the
# run rather than a few seconds of it: the speed of a shared machine can
# drift by a fifth within a minute.
SCHEDULES = {
    "symbolic_nets": ("sql", "hcb", "sql", "hxl", "sql", "pcu", "sql"),
    "bfs_deep": ("dia", "pcu", "dia", "bcu", "dia", "pcu"),
    "decompose_images": ("4off_target1", "4off_target2", "4off_target1"),
}


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[dict], list]  # parsed output -> problems


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _report_op(net, command, depth, methods):
    path = HERE / "nets" / f"{net}.graph"
    text = _read(path)

    def check(report):
        graph = oracles.parse_graph(text)
        sequence = oracles.bfs_sequence(graph, 1, depth)
        return oracles.check_report(report, net, depth, sequence, methods)

    args = [*command, str(path), "--origin", "1", "--depth", str(depth), "--json"]
    return Op(net, args, check)


def _decompose_op(target):
    path = HERE / "inputs" / f"4off_target{target}.json"
    image = json.loads(_read(path))
    graph_text = _read(HERE / "nets" / "4off.graph")
    # the radius the symbolic path uses: largest magnitude + 8
    magnitude = max(
        [1] + [abs(x) for part in image["parts"] for vec in [part["base"], *part["periods"]]
               for x in vec]
    )
    radius = magnitude + 8

    def check(result):
        graph = oracles.parse_graph(graph_text)
        distances = oracles.target_distances(graph, 1, target, 2 * radius)
        return oracles.check_decomposition(result, distances, radius)

    args = ["semilinear", "decompose", "--json-input", str(path), "--box-radius", str(radius)]
    return Op(f"4off_target{target}", args, check)


def setup(workload):
    """Import ratcoord afresh, read the inputs and build the argument lists.

    Returns ratcoord and the operations of one round, in order.
    """
    for name in [m for m in sys.modules if m == "ratcoord" or m.startswith("ratcoord.")]:
        del sys.modules[name]
    ratcoord = importlib.import_module("ratcoord")
    if workload == "symbolic_nets":
        ops = [_report_op(net, ["verify"], 30, ("fit", "symbolic")) for net in SYMBOLIC_NETS]
    elif workload == "bfs_deep":
        ops = [_report_op(net, ["gf", "--method", "fit"], 60, ("fit",)) for net in BFS_NETS]
    else:
        ops = [_decompose_op(target) for target in IMAGE_TARGETS]
    by_name = {op.name: op for op in ops}
    return ratcoord, [by_name[name] for name in SCHEDULES[workload]]


def run_round(ops, cli_main, tracer=None):
    """(operation, seconds, output) for each operation; output None if it failed."""
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        gc.collect()
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli_main(op.argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"ratbench: {op.name} failed with exit code {code}", file=sys.stderr)
        records.append((op, seconds, buffer.getvalue() if code == 0 else None))
    return records


def check_outputs(rounds):
    """Problems found in the outputs of every successful operation."""
    outputs = {(op.name, output): op for records in rounds for op, _, output in records}
    problems = []
    for (name, output), op in outputs.items():
        if output is None:
            continue
        try:
            problems += op.check(json.loads(output))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable output ({exc!r})")
    return problems


def op_times(rounds):
    """Operation name -> its times over all rounds."""
    times = {}
    for records in rounds:
        for op, seconds, _ in records:
            times.setdefault(op.name, []).append(seconds)
    return times


def end_to_end_metrics(rounds, setup_times):
    per_op = [statistics.median(times) for times in op_times(rounds).values()]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(sum(r[1] for r in records) for records in rounds), "s"),
        "slowest_op_s": (max(per_op), "s"),
        "geomean_op_s": (math.exp(statistics.fmean(math.log(t) for t in per_op)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_round(ops, cli_main, workload):
    """Each operation once, traced; the records and the per-layer metrics."""
    ops = list({op.name: op for op in ops}.values())
    with tracing.Tracer() as tracer:
        records = run_round(ops, cli_main, tracer)
    wall = sum(seconds for _, seconds, _ in records)
    report_bytes = sum(len(out.encode()) for _, _, out in records if out is not None)
    metrics = tracing.layer_metrics(tracer.spans, report_bytes)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}.jsonl")
    table = [f"{name:40s} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]
    table.append(
        f"tracing overhead: {tracer.overhead_s:.6f} s of a traced wall_s of "
        f"{wall:.3f} s ({100 * tracer.overhead_s / wall:.2f}%), "
        f"{len(tracer.spans)} spans"
    )
    (out_dir / f"layers-{workload}.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
    print("\n".join(table[:-1]), file=sys.stderr)
    print(table[-1])
    return [records], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratcoord" / "__init__.py").is_file():
        print(f"ratbench: no ratcoord sources under {SRC}", file=sys.stderr)
        return 2
    failures = selftest.run_self_tests()
    if failures:
        print("ratbench: checker self-tests failed:", *failures, sep="\n  ", file=sys.stderr)
        return 2
    os.environ["RATCOORD_PURE"] = "1"
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ratcoord, ops = setup(args.workload)
        setup_times.append(time.perf_counter() - start)
    if Path(ratcoord.__file__).resolve().parent != SRC / "ratcoord":
        print(f"ratbench: imported ratcoord from {ratcoord.__file__}", file=sys.stderr)
        return 2
    print("backend:", ratcoord.kernel_backend)
    cli_main = ratcoord.cli.main

    if args.trace:
        rounds, metrics = traced_round(ops, cli_main, args.workload)
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(ops, cli_main))
        metrics = end_to_end_metrics(rounds, setup_times)
        for name, times in op_times(rounds).items():
            print(f"{name:14s} median {statistics.median(times):.3f} s "
                  f"over {len(times)} runs", file=sys.stderr)

    attempted = sum(len(records) for records in rounds)
    failed = sum(out is None for records in rounds for _, _, out in records)
    problems = check_outputs(rounds)
    for problem in problems:
        print("ratbench: wrong answer:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
