"""Compare two checkouts of ratcoord on the gate commands.

Usage: python3 tools/parity.py OLD_TREE NEW_TREE

Each tree is the root of a checkout (its package under ``src/``).  Every
gate command runs once per tree, in a fresh interpreter that imports the
tree's package and calls ``ratcoord.cli.main``.  For each command the
script prints whether stdout, stderr and the exit code are identical, the
number of calls of ``_kernels.linear_points_in_box`` (the greedy's
candidates) in each tree, and the wall seconds of each process.  The nets
and frozen images are read from NEW_TREE; the kagome graph and a net whose
second orbit the first cannot reach (an empty Parikh image) are written to
a temporary directory.  The exit status is 1 when any command differs, 2 on a
usage error, else 0.
Standard library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

KAGOME = (
    "dim 2\nvertices 3\n"
    "edge 1 2 0 0\nedge 1 2 -1 0\nedge 1 3 0 0\nedge 1 3 0 -1\n"
    "edge 2 3 0 0\nedge 2 3 1 -1\n"
)
UNREACHABLE = "dim 1\nvertices 2\nedge 1 1 1\n"

# argv[1]: the tree's src directory; argv[2]: file for the call count;
# the rest is the command line
DRIVER = """
import sys
sys.path.insert(0, sys.argv[1])
from ratcoord import _kernels, cli
kernel, calls = _kernels.linear_points_in_box, []
def counted(*args):
    calls.append(None)
    return kernel(*args)
_kernels.linear_points_in_box = counted
try:
    code = cli.main(sys.argv[3:])
except SystemExit as exc:
    code = exc.code
finally:
    with open(sys.argv[2], "w") as handle:
        handle.write(str(len(calls)))
sys.exit(code)
"""


def gate_commands(nets, inputs, kagome, unreachable):
    """(label, argv) of every gate command."""
    commands = []
    verified = [(nets / f"{name}.graph", name, origins)
                for name, origins in (("sql", 1), ("hcb", 2), ("hxl", 1), ("pcu", 1))]
    for path, name, origins in verified + [(unreachable, "unreachable", 2)]:
        for origin in range(1, origins + 1):
            argv = ["verify", str(path), "--origin", str(origin)]
            commands.append((f"verify {name} {origin}", argv + ["--depth", "30", "--json"]))
    graphs = [(nets / f"{name}.graph", name, origins)
              for name, origins in (("dia", 2), ("bcu", 1), ("4off", 2))]
    for path, name, origins in graphs + [(kagome, "kagome", 3)]:
        for origin in range(1, origins + 1):
            argv = ["gf", str(path), "--origin", str(origin), "--depth", "30", "--json"]
            commands.append((f"gf {name} {origin}", argv))
    fits = [(nets / f"{name}.graph", name, origins)  # bfs_deep's fits come first
            for name, origins in (("pcu", 1), ("dia", 2), ("bcu", 1), ("4off", 2))]
    for path, name, origins in fits + [(kagome, "kagome", 3)]:
        for origin in range(1, origins + 1):
            argv = ["gf", "--method", "fit", str(path), "--origin", str(origin)]
            commands.append((f"gf fit {name} {origin} 60", argv + ["--depth", "60", "--json"]))
    for path, name, origins in graphs + [(kagome, "kagome", 3)]:  # the BFS kernel
        for origin in range(1, origins + 1):
            argv = ["bfs", str(path), "--origin", str(origin), "--depth", "60", "--json"]
            commands.append((f"bfs {name} {origin} 60", argv))
    for target in (1, 2):
        path = inputs / f"4off_target{target}.json"
        image = json.loads(path.read_text(encoding="utf-8"))
        magnitude = max(
            [1] + [abs(x) for part in image["parts"]
                   for vector in [part["base"], *part["periods"]] for x in vector]
        )
        argv = ["semilinear", "decompose", "--json-input", str(path)]
        radius = str(magnitude + 8)
        commands.append((f"decompose {target} r={radius}", argv + ["--box-radius", radius]))
        commands.append((f"decompose {target} default", argv))
    return commands


def run(tree, argv, scratch):
    """(stdout, stderr, exit code, kernel calls, wall seconds) of one command."""
    count_file = scratch / "calls"
    count_file.unlink(missing_ok=True)  # a run that dies early writes none
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, str(tree / "src"), str(count_file), *argv],
        capture_output=True,
    )
    wall = time.perf_counter() - start
    calls = int(count_file.read_text()) if count_file.exists() else None
    return done.stdout, done.stderr, done.returncode, calls, wall


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(arg).resolve() for arg in args)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        kagome = scratch / "kagome.graph"
        kagome.write_text(KAGOME, encoding="utf-8")
        unreachable = scratch / "unreachable.graph"
        unreachable.write_text(UNREACHABLE, encoding="utf-8")
        commands = gate_commands(
            new / "ratbench" / "nets", new / "ratbench" / "inputs", kagome, unreachable
        )
        print(f"{'command':<26} {'result':<28} {'calls old/new':>15} {'wall s old/new':>15}")
        for label, command in commands:
            before = run(old, command, scratch)
            after = run(new, command, scratch)
            names = ("stdout", "stderr", "exit", "calls")  # not the wall seconds
            diffs = [name for name, a, b in zip(names, before, after) if a != b]
            differ += bool(diffs)
            result = "DIFF " + ",".join(diffs) if diffs else f"identical (exit {after[2]})"
            calls = f"{before[3]}/{after[3]}"
            wall = f"{before[4]:.2f}/{after[4]:.2f}"
            print(f"{label:<26} {result:<28} {calls:>15} {wall:>15}", flush=True)
    print(f"{differ} of {len(commands)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
