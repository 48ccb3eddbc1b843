"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import pytest

from ratcoord import (
    AmbiguousWitness,
    LinearSet,
    NotQuasiPolynomialError,
    RationalGF,
    SemilinearSet,
    bfs_coordination,
    build_coordination_nfa,
    check_unambiguous,
    cross_verify,
    disambiguate,
    enumerate_in_box,
    fit_rational,
    gf_unambiguous_linear,
    member,
    parikh_image,
    parse_periodic_graph,
    pipeline_coordination_gf,
    run_parikh_oracle,
    series_coeffs,
    slice_counts,
    to_quasi_polynomial,
    validate_decomposition,
)
from .conftest import (
    AMBIGUOUS_EXAMPLE,
    GRAPH_TEXTS,
    ambiguous_example_points,
    _small_nfas,
    _gf_corpus,
    _unambiguous_corpus,
)

SQUARE_GF = RationalGF((1, 2, 1), (1, -2, 1))
HONEYCOMB_GF = RationalGF((1, 1, 1), (1, -2, 1))


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_square_lattice():
    start = time.monotonic()
    g = parse_periodic_graph(GRAPH_TEXTS["square"])
    seq = bfs_coordination(g, 1, 50)
    ok = seq.values[0] == 1 and all(
        seq.values[k] == 4 * k for k in range(1, 51)
    )
    report = pipeline_coordination_gf(g, 1, "both", 40)
    ok = ok and report.gf_fit == SQUARE_GF
    ok = ok and report.gf_symbolic == SQUARE_GF
    ok = ok and report.all_ok()
    elapsed = time.monotonic() - start
    _report(1, f"square lattice ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_2_honeycomb():
    start = time.monotonic()
    g = parse_periodic_graph(GRAPH_TEXTS["honeycomb"])
    seq = bfs_coordination(g, 1, 40)
    ok = seq.values[0] == 1 and all(
        seq.values[k] == 3 * k for k in range(1, 41)
    )
    report = pipeline_coordination_gf(g, 1, "both", 40)
    ok = ok and report.gf_fit == HONEYCOMB_GF
    ok = ok and report.gf_symbolic == HONEYCOMB_GF
    ok = ok and report.all_ok()
    elapsed = time.monotonic() - start
    _report(2, f"honeycomb ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_3_running_example():
    start = time.monotonic()
    witness = check_unambiguous(AMBIGUOUS_EXAMPLE)
    ok = isinstance(witness, AmbiguousWitness)
    original = SemilinearSet((AMBIGUOUS_EXAMPLE,))
    paper_decomposition = SemilinearSet(
        (
            LinearSet((2, 2), ((2, 0), (0, 2))),
            LinearSet((3, 3), ((2, 0), (0, 2))),
        )
    )
    ok = ok and validate_decomposition(
        original, paper_decomposition, (0, 0), (20, 20)
    )
    decomposition = disambiguate(original)
    ok = ok and decomposition.certified
    extension = enumerate_in_box(decomposition, (0, 0), (20, 20))
    ok = ok and extension == ambiguous_example_points(20)
    elapsed = time.monotonic() - start
    _report(3, f"running example ({elapsed:.1f}s)", ok and elapsed < 5.0)


def test_criterion_4_oracle_equivalence():
    length = 8
    discrepancies = 0
    for name, nfa, length_is_last in _small_nfas():
        oracle = run_parikh_oracle(nfa, length)
        image = parikh_image(nfa)
        for vector in oracle:
            if not member(image, vector):
                discrepancies += 1
        if oracle:
            dim = nfa.out_dim
            lo = tuple(min(v[i] for v in oracle) for i in range(dim))
            hi = tuple(max(v[i] for v in oracle) for i in range(dim))
            members = enumerate_in_box(image, lo, hi)
            if length_is_last:
                if {v for v in members if v[-1] <= length} != oracle:
                    discrepancies += 1
            else:
                if not members <= run_parikh_oracle(nfa, 2 * length + 2):
                    discrepancies += 1
        elif image.parts:
            discrepancies += 1
    _report(4, "parikh oracle equivalence", discrepancies == 0)


def test_criterion_5_formula_vs_enumeration():
    corpus = _unambiguous_corpus()
    ok = len(corpus) >= 10
    for l, i in corpus:
        from ratcoord import Unambiguous

        ok = ok and isinstance(check_unambiguous(l), Unambiguous)
        coeffs = series_coeffs(gf_unambiguous_linear(l, i), 30)
        counts = slice_counts(SemilinearSet((l,)), i, 30)
        ok = ok and coeffs == counts
    _report(5, "formula vs enumeration (30 coefficients)", ok)


def test_criterion_6_round_trip_fitting():
    corpus = [q for q in _gf_corpus() if len(q.den) - 1 <= 6]
    ok = len(corpus) >= 10
    for q in corpus:
        prefix = series_coeffs(q, 39)
        ok = ok and fit_rational(prefix, 6, 5) == q
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]
    fib_gf = fit_rational(fib, 3, 3)
    ok = ok and fib_gf == RationalGF((0, 1), (1, -1, -1))
    try:
        to_quasi_polynomial(fib_gf)
        ok = False
    except NotQuasiPolynomialError:
        pass
    _report(6, "round-trip fitting", ok)


def test_criterion_7_end_to_end_differences_law():
    ok = True
    for name, text in GRAPH_TEXTS.items():
        g = parse_periodic_graph(text)
        report = cross_verify(g, 1, 40, graph_id=name)
        ok = ok and report.symbolic_status == "ok"
        ok = ok and report.all_ok()
        ok = ok and series_coeffs(report.gf_symbolic, 40) == list(
            report.bfs_sequence.values
        )
    _report(7, "end-to-end differences law (40 coefficients)", ok)


def test_criterion_8_determinism(tmp_path, cli_env):
    import subprocess
    import sys

    path = tmp_path / "square.graph"
    path.write_text(GRAPH_TEXTS["square"], encoding="utf-8")
    cmd = [
        sys.executable,
        "-m",
        "ratcoord",
        "verify",
        str(path),
        "--origin",
        "1",
        "--depth",
        "25",
        "--json",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
        for _ in range(2)
    ]
    ok = runs[0].stdout == runs[1].stdout and bool(runs[0].stdout.strip())
    ok = ok and runs[0].returncode == 0
    _report(8, "byte-identical verify --json", ok)
