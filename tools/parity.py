"""Compare two checkouts of ratcoord on the gate commands.

Usage: python3 tools/parity.py OLD_TREE NEW_TREE

Each tree is the root of a checkout (its package under ``src/``).  Every
gate command runs once per tree, in a fresh interpreter that imports the
tree's package and calls ``ratcoord.cli.main``.  For each command the
script prints whether stdout, stderr and the exit code are identical, the
number of calls of ``_kernels.linear_points_in_box`` (the greedy's
candidates) in each tree, and the wall seconds of each process.  The nets
and frozen images are read from NEW_TREE; the kagome graph, a net whose
second orbit the first cannot reach (an empty Parikh image), the random
graph G1, the 2 x 1 supercell of hcb (both of ROADMAP item 2), the
3-orbit net of ROADMAP item 7 and five malformed graph files are written
to a temporary directory.  The gate commands open with ``--help`` of
``bfs``, ``gf`` and ``verify`` and with ``bfs`` on each malformed file,
whose error message and exit code 2 are compared like any output.  A
second driver then runs a fixed list of library calls (``LIBRARY_DRIVER``:
enumeration, slice counts, representation counts, membership,
quasi-polynomial forms, the fit's ``RationalGF`` as callers read it
(repr, str, hash, JSON and equality), box validation, the
run-enumeration oracle's vector sets, which no gate command reaches, the
parts ``decompose_shell`` chooses, which the gate commands show only
through their GFs, the parts ``disambiguate`` chooses (the paper's set
among them, whose functional (1, 1) makes every axis a cell axis), the
doubled-box check ``same_shell_in_box`` on true and false shells, and
cover BFS at depth 20 from every origin of nets in layouts no net file
holds: pcu4, dia4, diamond's 8-orbit conventional cell, all of ROADMAP
item 7, and a net whose steps are all even) once per
tree and prints their results as canonical JSON; a call that raises
BudgetExceeded, DecompositionError or NotQuasiPolynomialError has that as
its result.  Last it prints each tree's number of lines under
``src/ratcoord/`` (as ``cat src/ratcoord/*.py | wc -l`` counts them), which
does not affect the exit status.  The exit status is 1 when any command or
library probe differs, 2 on a usage error, else 0.
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
G1 = "dim 2\nvertices 2\nedge 1 2 -1 0\nedge 1 2 0 -1\nedge 1 2 0 1\nedge 1 2 1 1\n"
HCB_2X1 = (
    "dim 2\nvertices 4\nedge 1 3 0 0\nedge 1 3 0 1\nedge 1 4 0 0\n"
    "edge 2 3 1 0\nedge 2 4 0 0\nedge 2 4 0 1\n"
)
THREE_ORBIT = (
    "dim 3\nvertices 3\nedge 1 2 0 0 0\nedge 1 2 1 0 0\nedge 2 3 0 0 0\n"
    "edge 2 3 0 1 0\nedge 3 1 0 0 0\nedge 3 1 0 0 1\n"
)
# malformed graph files, each rejected by the parser with its line number
MALFORMED = {
    "missing vertices": "# header\ndim 2\n\n",
    "edge before vertices": "dim 2\nedge 1 1 1 0\nvertices 1\n",
    "flipped duplicate": "dim 2\nvertices 2\nedge 1 2 1 0\n# again\nedge 2 1 -1 0\n",
    "bad integer": "dim 2\nvertices 1\nedge 1 1 1 0x\n",
    "comments only": "# no\n\n# header\n",
}

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

# argv[1]: the tree's src directory; argv[2]: the benchmark directory with
# the nets and frozen images; argv[3]: the kagome graph; prints
# {probe: result} as one JSON object
LIBRARY_DRIVER = """
import itertools, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from ratcoord.automaton import (
    VectorNFA, build_coordination_nfa, parikh_image, run_parikh_oracle,
)
from ratcoord.errors import BudgetExceeded, DecompositionError
from ratcoord.genfunc import (
    NotQuasiPolynomialError, RationalGF, fit_rational, gf_to_json, to_quasi_polynomial,
)
from ratcoord.periodic_graph import bfs_coordination, parse_periodic_graph
from ratcoord.semilinear import (
    LinearSet, SemilinearSet, _magnitude, count_representations, decompose_shell,
    disambiguate, enumerate_in_box, member, same_shell_in_box, semilinear_from_json,
    slice_counts, validate_decomposition,
)
bench = Path(sys.argv[2])
A2 = LinearSet((2, 2), ((2, 0), (1, 1), (0, 2)))
OPPOSED = SemilinearSet((
    LinearSet((0, 0), ((2, -1), (-1, 2))), LinearSet((0, 0), ((-2, 1), (1, -2))),
))
# a part dropped for its y alone leaves periods whose functional puts the
# other part's base above the box's top level
DROPPED = SemilinearSet(
    (LinearSet((1, 0), ((-1, 0),)), LinearSet((0, 0), ((0, -2), (2, 1))))
)
# the far-base example of enumerate_in_box's docstring
FAR = SemilinearSet((LinearSet((8, -7, 11, -2), ((-2, -2, -3, 3), (2, 3, -3, 0))),))
FAR_BOX = (-5, -4, -1, 2), (-4, 0, 2, 4)
# count_representations reads these off its pivot rows: independent periods
# with the functional (1, 1), with no functional on its grid, and no periods
ELIMINATED = {
    "(2,-1),(-1,2)": LinearSet((0, 0), ((2, -1), (-1, 2))),
    "(1,5),(-1,-4)": LinearSet((0, 0), ((1, 5), (-1, -4))),
    "no periods": LinearSet((3, 1)),
}
NAMES = ("sql", "hcb", "hxl", "pcu", "dia", "bcu", "4off")
NETS = {name: bench / "nets" / f"{name}.graph" for name in NAMES}
NETS["kagome"] = Path(sys.argv[3])

def image(net, target):
    text = NETS[net].read_text(encoding="utf-8")
    return parikh_image(build_coordination_nfa(parse_periodic_graph(text), 1, target))

def shell(net, target):  # the parts decompose_shell chooses at the pipeline's r
    s = image(net, target)
    parts = decompose_shell(s, _magnitude(s.parts) + 8).parts
    return [[part.base, part.periods] for part in parts]

def decomposed(parts, *radius):  # the parts disambiguate chooses
    d = disambiguate(SemilinearSet(parts), *radius)
    return [[part.base, part.periods] for part in d.parts]

def frozen(target):
    text = (bench / "inputs" / f"4off_target{target}.json").read_text(encoding="utf-8")
    return semilinear_from_json(json.loads(text))

def box(s, scale):  # the certification box (scale 1) or the doubled one (2)
    r = scale * (_magnitude(s.parts) + 8)
    return (-r,) * s.dim, (r,) * s.dim

def same_shell(s, shell):  # the pipeline's doubled-box check at 2r
    return same_shell_in_box(s, shell, *box(s, 2), 5_000_000)

def points(s, lo, hi, *budget):
    return sorted(enumerate_in_box(s, lo, hi, *budget))

def validated(s):
    return validate_decomposition(s, disambiguate(s, box(s, 1)[1][0]), *box(s, 2))

def quasi(q):  # the period, residue polynomials as strings and prefix
    qp = to_quasi_polynomial(q)
    polys = [[str(c) for c in poly] for poly in qp.residue_polynomials]
    return [qp.period, polys, list(qp.exceptional_prefix)]

def fitted(path):  # the fit path's GF of origin 1 at depth 30
    g = parse_periodic_graph(path.read_text(encoding="utf-8"))
    values = bfs_coordination(g, 1, 30).values
    return fit_rational(values, (len(values) - 5) // 2, 5)

def value(q):  # what callers read off a RationalGF
    return [repr(q), str(q), hash(q), gf_to_json(q), q == RationalGF(q.num, q.den)]

def oracle(net, target, *budget):  # the oracle's vectors at length 8, sorted
    g = parse_periodic_graph(NETS[net].read_text(encoding="utf-8"))
    return sorted(run_parikh_oracle(build_coordination_nfa(g, 1, target), 8, *budget))

images = {"sql": image("sql", 1), "hcb t1": image("hcb", 1), "hcb t2": image("hcb", 2)}
probes = {
    "enumerate A2 (0,0)-(20,20)": lambda: points(SemilinearSet((A2,)), (0, 0), (20, 20)),
    "enumerate OPPOSED": lambda: points(OPPOSED, (-6, -6), (6, 6)),
    "enumerate DROPPED": lambda: points(DROPPED, (-1, 1), (0, 2)),
    "enumerate far base 10**6": lambda: points(FAR, *FAR_BOX, 10**6),
    "enumerate far base 10**7": lambda: points(FAR, *FAR_BOX, 10**7),
    "count_representations A2": lambda: [
        count_representations(A2, v) for v in itertools.product(range(13), repeat=2)
    ],
    "quasi-polynomial 1/(1-z-z^2)": lambda: quasi(RationalGF((1,), (1, -1, -1))),
}
for name, l in ELIMINATED.items():
    probes[f"count_representations {name}"] = lambda l=l: [
        count_representations(l, v) for v in itertools.product(range(-6, 7), repeat=2)
    ]
# rationally but not integrally reachable, with no functional on the periods
probes["count_representations non-member (2,-2),(-2,2)"] = lambda: (
    count_representations(LinearSet((0, 0), ((2, -2), (-2, 2))), (1, -1))
)
# a member whose periods sum to zero has infinitely many tuples
probes["count_representations zero-sum member"] = lambda: (
    count_representations(LinearSet((0, 0), ((1, -1), (-1, 1))), (2, -2))
)
# the 4-direction lattice has no positive functional; DROPPED's parts have no
# common one
LATTICE = SemilinearSet((LinearSet((0, 0), ((1, 0), (-1, 0), (0, 1), (0, -1))),))
for name, s in (("lattice", LATTICE), ("DROPPED", DROPPED)):
    probes[f"member {name}"] = lambda s=s: [
        member(s, v) for v in itertools.product(range(-3, 4), repeat=2)
    ]
for net, targets in (("sql", 1), ("hcb", 2), ("pcu", 1), ("dia", 2), ("kagome", 3)):
    for target in range(1, targets + 1):
        probes[f"oracle {net} t{target}"] = lambda n=net, t=target: oracle(n, t)
probes["oracle hcb t1 budget 100"] = lambda: oracle("hcb", 1, 100)
# no transitions: only the empty run, whose vector has the output dimension
probes["oracle transitionless"] = lambda: sorted(
    run_parikh_oracle(VectorNFA(2, 1, {1}, {1}, ()), 3)
)
for name, path in NETS.items():
    probes[f"quasi-polynomial {name}"] = lambda path=path: quasi(fitted(path))
    probes[f"RationalGF {name}"] = lambda path=path: value(fitted(path))
    orbits = parse_periodic_graph(path.read_text(encoding="utf-8")).num_orbits
    for target in range(1, orbits + 1):  # every target, from origin 1
        probes[f"shell {name} t{target}"] = lambda n=name, t=target: shell(n, t)
for name, s in images.items():
    probes[f"slice_counts {name}"] = lambda s=s: slice_counts(s, s.dim, 20)
for target in (1, 2):
    images[f"4off t{target}"] = s = frozen(target)
    probes[f"enumerate 4off t{target} doubled"] = lambda s=s: points(s, *box(s, 2))
for name, s in images.items():
    probes[f"validate {name}"] = lambda s=s: validated(s)
images["pcu t1"] = image("pcu", 1)
for name in ("sql", "hcb t1", "pcu t1", "4off t1"):
    s = images[name]  # true with its shell's parts, false with the image itself
    probes[f"same_shell_in_box {name} shell"] = lambda s=s: same_shell(
        s, decompose_shell(s, box(s, 1)[1][0])
    )
    probes[f"same_shell_in_box {name} image"] = lambda s=s: same_shell(s, s)
# the greedy on the paper's set, whose functional (1, 1) makes every axis a
# cell axis, and with the functional (0, 1) on a period stepping past the
# box and on the 1,000-part cap
probes["disambiguate A2"] = lambda: decomposed((A2,))
probes["disambiguate A2 box 8"] = lambda: decomposed((A2,), 8)
probes["disambiguate step past the box"] = lambda: decomposed(
    (LinearSet((1, 1), ((2, 1), (1, 1))), LinearSet((2, -1), ((-1, 2),))), 3
)
probes["disambiguate part cap"] = lambda: decomposed(
    (*(LinearSet((i, j)) for i in range(33) for j in range(33)),
     LinearSet((0, 0), ((1, 1),)))
)
# no positive functional: raised before a grid that budget 1 cannot hold
probes["disambiguate no functional budget 1"] = lambda: disambiguate(
    SemilinearSet((LinearSet((0, 0), ((1, 0), (-1, 0))),)), budget=1
)
# cover BFS in layouts the net files lack: parity-halved and
# orbit-alternating in 4D, eight orbits, and steps that are all even
BFS_TEXTS = {
    "pcu4": (
        "dim 4\\nvertices 1\\nedge 1 1 1 0 0 0\\nedge 1 1 0 1 0 0\\n"
        "edge 1 1 0 0 1 0\\nedge 1 1 0 0 0 1\\n"
    ),
    "dia4": (
        "dim 4\\nvertices 2\\nedge 1 2 0 0 0 0\\nedge 1 2 1 0 0 0\\n"
        "edge 1 2 0 1 0 0\\nedge 1 2 0 0 1 0\\nedge 1 2 0 0 0 1\\n"
    ),
    "dia cell": "dim 3\\nvertices 8\\n" + "".join(
        f"edge {edge}\\n" for edge in (
            "1 5 0 0 0", "1 6 0 -1 -1", "1 7 -1 0 -1", "1 8 -1 -1 0",
            "2 5 0 0 0", "2 6 0 0 0", "2 7 -1 0 0", "2 8 -1 0 0",
            "3 5 0 0 0", "3 6 0 -1 0", "3 7 0 0 0", "3 8 0 -1 0",
            "4 5 0 0 0", "4 6 0 0 -1", "4 7 0 0 -1", "4 8 0 0 0",
        )
    ),
    "all even": "dim 2\\nvertices 3\\nedge 3 3 0 2\\nedge 3 3 2 -2\\n",
}
for name, text in BFS_TEXTS.items():
    g = parse_periodic_graph(text)
    for origin in range(1, g.num_orbits + 1):
        probes[f"bfs {name} o{origin} 20"] = lambda g=g, o=origin: list(
            bfs_coordination(g, o, 20).values
        )
results = {}
for label, probe in probes.items():
    try:
        results[label] = probe()
    except (BudgetExceeded, DecompositionError, NotQuasiPolynomialError) as exc:
        results[label] = {type(exc).__name__: str(exc)}
print(json.dumps(results, sort_keys=True, separators=(",", ":")))
"""


def gate_commands(nets, inputs, kagome, unreachable, extra, malformed):
    """(label, argv) of every gate command; ``extra`` is a list of
    (path, name, origins) verified after the others, and ``malformed`` a
    list of (path, name) of graph files that ``bfs`` must reject."""
    commands = [(f"{name} --help", [name, "--help"]) for name in ("bfs", "gf", "verify")]
    for path, name in malformed:
        commands.append((f"bfs {name}", ["bfs", str(path), "--origin", "1", "--depth", "3"]))
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
    for path, name, origins in extra:
        for origin in range(1, origins + 1):
            argv = ["verify", str(path), "--origin", str(origin)]
            commands.append((f"verify {name} {origin}", argv + ["--depth", "30", "--json"]))
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


def library_results(tree, bench, kagome):
    """({probe: result}, wall seconds) of the library driver in one tree."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", LIBRARY_DRIVER, str(tree / "src"), str(bench), str(kagome)],
        capture_output=True,
    )
    wall = time.perf_counter() - start
    if done.returncode:  # every probe of a tree whose driver died differs
        sys.stderr.write(done.stderr.decode(errors="replace"))
        return {}, wall
    return json.loads(done.stdout), wall


def src_lines(tree):
    """Newlines in the tree's ``src/ratcoord/*.py``."""
    files = (tree / "src" / "ratcoord").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in files)


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
        extra = []
        extras = (("G1", G1, 2), ("hcb2x1", HCB_2X1, 4), ("3-orbit", THREE_ORBIT, 3))
        for name, text, origins in extras:
            path = scratch / f"{name}.graph"
            path.write_text(text, encoding="utf-8")
            extra.append((path, name, origins))
        malformed = []
        for i, (name, text) in enumerate(MALFORMED.items()):
            path = scratch / f"malformed{i}.graph"
            path.write_text(text, encoding="utf-8")
            malformed.append((path, name))
        commands = gate_commands(
            new / "ratbench" / "nets", new / "ratbench" / "inputs", kagome,
            unreachable, extra, malformed,
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
        bench = new / "ratbench"
        (before, old_wall), (after, new_wall) = (
            library_results(tree, bench, kagome) for tree in (old, new)
        )
    labels = sorted(before.keys() | after.keys())
    print(f"{'library probe':<36} {'result':<20} wall s old/new {old_wall:.2f}/{new_wall:.2f}")
    probes_differ = 0
    for label in labels:
        same = label in before and before.get(label) == after.get(label)
        probes_differ += not same
        print(f"{label:<36} {'identical' if same else 'DIFF'}", flush=True)
    print(f"{differ} of {len(commands)} commands differ")
    print(f"{probes_differ} of {len(labels)} library probes differ")
    print(f"src/ratcoord lines old/new: {src_lines(old)}/{src_lines(new)}")
    return 1 if differ or probes_differ or not labels else 0


if __name__ == "__main__":
    sys.exit(main())
