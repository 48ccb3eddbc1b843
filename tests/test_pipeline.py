import itertools
import json
import subprocess
import sys
from collections import Counter
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratcoord import (
    BudgetExceeded,
    CoverVertex,
    DecompositionError,
    LinearSet,
    PeriodicGraph,
    RationalGF,
    SemilinearSet,
    bfs_coordination,
    cross_verify,
    disambiguate,
    build_coordination_nfa,
    canonical_edge_orbit,
    decompose_shell,
    linear_set_to_json,
    parikh_image,
    parse_periodic_graph,
    pipeline_coordination_gf,
    series_coeffs,
    validate_decomposition,
)
from ratcoord.cli import DISAMBIG_MARGIN, main
from ratcoord.semilinear import _magnitude, _part_counts
from .conftest import (
    AMBIGUOUS_EXAMPLE,
    GRAPH_TEXTS,
    HONEYCOMB_TEXT,
    PCU_TEXT,
    SQUARE_TEXT,
    cover_distances,
    supercell,
)

SQUARE_GF = RationalGF((1, 2, 1), (1, -2, 1))
HONEYCOMB_GF = RationalGF((1, 1, 1), (1, -2, 1))


class TestPipeline:
    def test_square_both_paths(self, square):
        report = pipeline_coordination_gf(square, 1, "both", 40)
        assert report.gf_fit == SQUARE_GF
        assert report.gf_symbolic == SQUARE_GF
        assert report.symbolic_status == "ok"
        assert report.all_ok()
        pairs = {e["pair"] for e in report.agreement}
        assert pairs == {"bfs_vs_fit", "bfs_vs_symbolic", "fit_vs_symbolic"}

    def test_honeycomb_fit(self, honeycomb):
        report = pipeline_coordination_gf(honeycomb, 1, "fit", 40)
        assert report.gf_fit == HONEYCOMB_GF
        assert report.gf_symbolic is None
        assert report.all_ok()

    def test_edgeless_both(self, edgeless):
        report = pipeline_coordination_gf(edgeless, 1, "both", 10)
        assert report.gf_fit == RationalGF((1,))
        assert report.gf_symbolic == RationalGF((1,))
        assert report.all_ok()

    def test_symbolic_only(self, square):
        report = pipeline_coordination_gf(square, 1, "symbolic", 20)
        assert report.gf_fit is None
        assert report.gf_symbolic == SQUARE_GF

    def test_gf_matches_bfs_exactly(self, graphs):
        for name, g in graphs.items():
            report = pipeline_coordination_gf(g, 1, "fit", 30)
            assert (
                series_coeffs(report.gf_fit, 30) == list(report.bfs_sequence.values)
            ), name

    def test_symbolic_path_stays_in_grids(self, square, monkeypatch):
        # sql: neither the counts kernel nor enumerate_in_box, and per target
        # one grid for the shell decomposition and one for the doubled-box
        # check
        import ratcoord.cli as cli
        from ratcoord import _kernels, semilinear

        def forbidden(*args, **kwargs):
            raise AssertionError("called off the grid path")

        monkeypatch.setattr(_kernels, "linear_point_counts", forbidden)
        monkeypatch.setattr(semilinear, "enumerate_in_box", forbidden)
        monkeypatch.setattr(cli, "enumerate_in_box", forbidden)
        grid_class, grids = _kernels.BoxGrid, []

        def counted(*args):
            grids.append(args)
            return grid_class(*args)

        monkeypatch.setattr(_kernels, "BoxGrid", counted)
        gf = cli.symbolic_coordination_gf(square, 1)
        assert gf == SQUARE_GF
        assert len(grids) == 2 * square.num_orbits

    def test_failed_check_certifies_once_more_at_twice_the_radius(
        self, square, monkeypatch
    ):
        # the first doubled-box check is forced to fail after building its
        # grid; the retry decomposes at 2r, checks at 4r and passes
        import ratcoord.cli as cli
        from ratcoord import _kernels

        check, decompose, checks, radii = (
            cli.same_shell_in_box, cli.decompose_shell, [], []
        )

        def fail_first(*args):
            checks.append(check(*args))
            return checks[-1] and len(checks) > 1

        def recorded(image, radius, budget):
            radii.append(radius)
            return decompose(image, radius, budget)

        grid_class, grids = _kernels.BoxGrid, []

        def counted(*args):
            grids.append(args)
            return grid_class(*args)

        monkeypatch.setattr(cli, "same_shell_in_box", fail_first)
        monkeypatch.setattr(cli, "decompose_shell", recorded)
        monkeypatch.setattr(_kernels, "BoxGrid", counted)
        report = cli.pipeline_coordination_gf(square, 1, "both", 30)
        assert report.symbolic_status == "ok"
        assert report.gf_symbolic == SQUARE_GF
        assert report.all_ok()
        r = _magnitude(parikh_image(build_coordination_nfa(square, 1, 1)).parts)
        r += DISAMBIG_MARGIN
        assert radii == [r, 2 * r]
        assert checks == [True, True]
        assert len(grids) == 4

    @pytest.mark.parametrize(
        "text,scale",
        [(SQUARE_TEXT, 4), (HONEYCOMB_TEXT, 4), (PCU_TEXT, 2)],
        ids=["sql", "hcb", "pcu"],
    )
    def test_shell_parts_are_the_first_distances(self, text, scale):
        # the shell parts certified at radius r, counted one part at a time by
        # the counts kernel on the box of scale * r: every point has one
        # representation, and the points are the cells with their BFS
        # distance
        g = parse_periodic_graph(text)
        for target in range(1, g.num_orbits + 1):
            image = parikh_image(build_coordination_nfa(g, 1, target))
            r = _magnitude(image.parts) + DISAMBIG_MARGIN
            shell = decompose_shell(image, r)
            far = scale * r
            box = (-far,) * (g.dim + 1), (far,) * (g.dim + 1)
            counts = Counter()
            for part in shell.parts:
                counts.update(_part_counts(part, *box, 10**7))
            assert set(counts.values()) == {1}
            origin = CoverVertex(1, (0,) * g.dim)
            first = cover_distances(g, origin, far)  # far may differ by target
            assert counts.keys() == {
                (*v.shift, distance)
                for v, distance in first.items()
                if v.orbit == target and max(map(abs, v.shift)) <= far
            }

    def test_unknown_method(self, square):
        with pytest.raises(ValueError):
            pipeline_coordination_gf(square, 1, "magic", 10)


class TestCrossVerify:
    @pytest.mark.parametrize("name", ["square", "honeycomb", "chain", "ladder"])
    def test_corpus_graphs_agree(self, graphs, name):
        report = cross_verify(graphs[name], 1, 30, graph_id=name)
        assert report.all_ok(), report.agreement
        assert report.symbolic_status == "ok"
        pairs = {e["pair"] for e in report.agreement}
        assert "oracle_vs_bfs_cumulative" in pairs

    def test_oracle_runs_no_image_kernel(self, honeycomb, monkeypatch):
        import ratcoord.cli as cli
        from ratcoord import _kernels

        oracle, calls = cli.run_parikh_oracle, []

        def refuse(*args):
            raise AssertionError("the oracle ran the Parikh image's kernel")

        def isolated(nfa, max_len):
            calls.append(nfa)
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "accepting_run_profiles", refuse)
                return oracle(nfa, max_len)

        monkeypatch.setattr(cli, "run_parikh_oracle", isolated)
        report = cross_verify(honeycomb, 1, 20)
        assert len(calls) == 2 and report.all_ok(), report.agreement

    def test_oracle_over_budget_checks_a_shallower_depth(
        self, graph_files, monkeypatch, capsys
    ):
        import ratcoord.cli as cli

        oracle = cli.run_parikh_oracle

        def capped(nfa, max_len):
            if max_len > 5:
                raise BudgetExceeded("run vectors would span more bits")
            return oracle(nfa, max_len)

        monkeypatch.setattr(cli, "run_parikh_oracle", capped)
        argv = [graph_files["honeycomb"], "--origin", "1", "--depth", "12"]
        gf_code = main(["gf", *argv])
        capsys.readouterr()
        assert main(["verify", *argv]) == gf_code == 0
        out = capsys.readouterr().out
        assert "agreement bfs_vs_symbolic: ok (depth 12)" in out
        assert "agreement oracle_vs_bfs_cumulative: ok (depth 5)" in out

    def test_corrupted_symbolic_is_flagged(self, square, monkeypatch):
        import ratcoord.cli as cli

        symbolic = cli.symbolic_coordination_gf

        def tamper(g, origin_orbit):
            # bump coefficient 3
            return symbolic(g, origin_orbit) + RationalGF((0, 0, 0, 1))

        monkeypatch.setattr(cli, "symbolic_coordination_gf", tamper)
        report = cross_verify(square, 1, 20)
        assert not report.all_ok()
        bad = {
            e["pair"]: e["first_mismatch"]
            for e in report.agreement
            if not e["ok"]
        }
        assert bad == {"bfs_vs_symbolic": 3, "fit_vs_symbolic": 3}


@pytest.fixture()
def graph_files(tmp_path):
    paths = {}
    for name, text in GRAPH_TEXTS.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestCli:
    def test_bfs_plain(self, graph_files, capsys):
        code = main(["bfs", graph_files["square"], "--origin", "1", "--depth", "5"])
        assert code == 0
        assert capsys.readouterr().out == "1 4 8 12 16 20\n"

    def test_bfs_json(self, graph_files, capsys):
        code = main(
            ["bfs", graph_files["honeycomb"], "--origin", "2", "--depth", "3", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sequence"] == [1, 3, 6, 9]
        assert data["graph_id"] == "honeycomb.graph"
        assert data["origin"] == 2

    def test_gf_plain(self, graph_files, capsys):
        code = main(
            ["gf", graph_files["square"], "--origin", "1", "--method", "fit"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gf_fit: (1 + 2*z + z^2)/(1 - 2*z + z^2)" in out
        assert "fit_status: ok" in out

    def test_gf_json_both(self, graph_files, capsys):
        code = main(
            ["gf", graph_files["square"], "--origin", "1", "--json", "--depth", "30"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gf_fit"] == {"num": [1, 2, 1], "den": [1, -2, 1]}
        assert data["gf_symbolic"] == {"num": [1, 2, 1], "den": [1, -2, 1]}
        assert data["fit_status"] == "ok"
        assert data["symbolic_status"] == "ok"
        assert all(entry["ok"] for entry in data["agreement"])

    def test_no_fit_leaves_symbolic_result(self, graph_files, capsys):
        # five terms are too few to fit, but the symbolic path still runs
        code = main(
            ["gf", graph_files["square"], "--origin", "1", "--depth", "4", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fit_status"] == "no_fit"
        assert data["gf_fit"] is None
        assert data["gf_symbolic"] == {"num": [1, 2, 1], "den": [1, -2, 1]}
        assert data["symbolic_status"] == "ok"
        assert [e["pair"] for e in data["agreement"]] == ["bfs_vs_symbolic"]

    def test_no_fit_alone_exits_four(self, graph_files, capsys):
        code = main(
            [
                "gf",
                graph_files["square"],
                "--origin",
                "1",
                "--method",
                "fit",
                "--depth",
                "4",
            ]
        )
        assert code == 4
        assert "fit_status: no_fit" in capsys.readouterr().out

    def test_module_entry_point_runs_warning_free(self, graph_files, cli_env):
        cmd = [
            sys.executable,
            "-W",
            "error",
            "-m",
            "ratcoord",
            "bfs",
            graph_files["square"],
            "--origin",
            "1",
            "--depth",
            "5",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "1 4 8 12 16 20\n"
        assert run.stderr == ""

    def test_verify_exit_zero(self, graph_files, capsys):
        code = main(
            ["verify", graph_files["honeycomb"], "--origin", "1", "--depth", "25"]
        )
        assert code == 0
        assert "mismatch" not in capsys.readouterr().out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("dim 2\nvertices 1\nedge 1 1 0 0\n", encoding="utf-8")
        code = main(["bfs", str(bad), "--origin", "1", "--depth", "2"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        code = main(["bfs", "/nonexistent.graph", "--origin", "1", "--depth", "2"])
        assert code == 2

    def test_decompose(self, tmp_path, capsys):
        payload = {
            "parts": [{"base": [2, 2], "periods": [[2, 0], [1, 1], [0, 2]]}],
            "certified": False,
        }
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["semilinear", "decompose", "--json-input", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certified"] is True
        assert len(data["parts"]) >= 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"parts": [{"base": [0, 0]}]},
            [1, 2],
            # a coordinate that is not a JSON integer is not rounded or converted
            {"parts": [{"base": [0.7, 0], "periods": [[1, 0]]}]},
            {"parts": [{"base": [True, 0], "periods": [[1, 0]]}]},
            {"parts": [{"base": [0, 0], "periods": [["3", 0]]}]},
            # only a JSON boolean says whether the set is certified
            {"parts": [{"base": [0, 0], "periods": [[1, 0]]}], "certified": "false"},
        ],
        ids=["missing_key", "wrong_shape", "float", "bool", "string", "certified"],
    )
    def test_malformed_decompose_input_exit_two(self, tmp_path, capsys, payload):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["semilinear", "decompose", "--json-input", str(path)])
        assert code == 2
        assert "ratcoord: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_budget_exit_two(self, tmp_path, capsys, budget):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"parts": [{"base": [0], "periods": [[1]]}]}))
        argv = ["semilinear", "decompose", "--json-input", str(path), "--budget", budget]
        assert main(argv) == 2
        assert "--budget must be positive" in capsys.readouterr().err

    def test_determinism_byte_identical(self, graph_files, cli_env):
        cmd = [
            sys.executable,
            "-m",
            "ratcoord",
            "verify",
            graph_files["square"],
            "--origin",
            "1",
            "--depth",
            "20",
            "--json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
        assert first.stdout == second.stdout
        assert first.stdout.strip()

    @pytest.mark.parametrize("command", ["bfs", "gf", "verify"])
    def test_missing_origin_exit_two(self, graph_files, capsys, command):
        # argparse exits 2 itself: every graph command requires --origin
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph_files["square"], "--depth", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ratcoord {command} [-h] --origin ORIGIN")
        assert err.endswith("error: the following arguments are required: --origin\n")

    def test_origin_before_the_file(self, graph_files, capsys):
        assert main(["bfs", "--origin", "1", graph_files["square"], "--depth", "3"]) == 0
        assert capsys.readouterr().out == "1 4 8 12\n"

    def test_python_dash_m_exit_codes(self, graph_files, tmp_path, cli_env):
        def run(path, *options):
            cmd = [sys.executable, "-m", "ratcoord", "bfs", path, *options]
            return subprocess.run(cmd, capture_output=True, text=True, env=cli_env)

        done = run(graph_files["square"], "--origin", "1", "--depth", "3")
        assert (done.returncode, done.stdout) == (0, "1 4 8 12\n")
        # main returns 2 for an unreadable file; only sys.exit passes it on
        done = run(str(tmp_path / "missing.graph"), "--origin", "1", "--depth", "3")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("ratcoord: error:")

    def test_in_process_calls_print_what_fresh_processes_print(
        self, graph_files, tmp_path, cli_env, capsys
    ):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"parts": [linear_set_to_json(AMBIGUOUS_EXAMPLE)]}))
        commands = [
            ["bfs", graph_files["honeycomb"], "--origin", "2", "--depth", "6"],
            ["gf", graph_files["square"], "--origin", "1", "--method", "fit", "--json"],
            ["semilinear", "decompose", "--json-input", str(path)],
        ]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "ratcoord", *argv],
                capture_output=True, text=True, check=True, env=cli_env,
            ).stdout
            for argv in commands
        ]
        for _ in range(2):  # alternate the subcommands on the one parser
            for argv, expected in zip(commands, fresh):
                assert main(argv) == 0
                assert capsys.readouterr().out == expected


class TestMoreNets:
    def test_cubic_lattice(self):
        from ratcoord import parse_periodic_graph

        cubic = parse_periodic_graph(
            "dim 3\nvertices 1\nedge 1 1 1 0 0\nedge 1 1 0 1 0\nedge 1 1 0 0 1"
        )
        report = pipeline_coordination_gf(cubic, 1, "both", 30)
        expected = RationalGF((1, 3, 3, 1), (1, -3, 3, -1))
        assert report.gf_fit == expected
        assert report.gf_symbolic == expected
        assert report.all_ok()

    def test_four_offset_bipartite(self):
        from ratcoord import parse_periodic_graph

        g = parse_periodic_graph(
            "dim 2\nvertices 2\n"
            "edge 1 2 0 0\nedge 1 2 1 0\nedge 1 2 0 1\nedge 1 2 1 1"
        )
        report = pipeline_coordination_gf(g, 1, "both", 30)
        assert report.gf_fit == report.gf_symbolic
        assert report.all_ok()

    def test_hypercubic_lattice_4d(self):
        # Z^4 on both paths: Conway and Sloane's ((1 + z) / (1 - z))^4
        g = parse_periodic_graph(
            "dim 4\nvertices 1\nedge 1 1 1 0 0 0\nedge 1 1 0 1 0 0\n"
            "edge 1 1 0 0 1 0\nedge 1 1 0 0 0 1\n"
        )
        report = pipeline_coordination_gf(g, 1, "both", 30)
        expected = RationalGF((1, 4, 6, 4, 1), (1, -4, 6, -4, 1))
        assert report.gf_fit == expected
        assert report.gf_symbolic == expected
        assert report.symbolic_status == "ok"
        assert report.all_ok()

    def test_a4_root_lattice_fit(self):
        # A_4, neighbours e_i and e_i - e_j: Conway and Sloane's
        # sum_k C(4, k)^2 z^k / (1 - z)^4 (the symbolic path takes seconds)
        g = parse_periodic_graph(
            "dim 4\nvertices 1\n"
            "edge 1 1 1 0 0 0\nedge 1 1 0 1 0 0\nedge 1 1 0 0 1 0\nedge 1 1 0 0 0 1\n"
            "edge 1 1 1 -1 0 0\nedge 1 1 1 0 -1 0\nedge 1 1 1 0 0 -1\n"
            "edge 1 1 0 1 -1 0\nedge 1 1 0 1 0 -1\nedge 1 1 0 0 1 -1\n"
        )
        report = pipeline_coordination_gf(g, 1, "fit", 30)
        numerator = tuple(comb(4, k) ** 2 for k in range(5))
        assert report.gf_fit == RationalGF(numerator, (1, -4, 6, -4, 1))
        assert report.all_ok()

    def test_kagome(self):
        from ratcoord import parse_periodic_graph

        g = parse_periodic_graph(
            "dim 2\nvertices 3\n"
            "edge 1 2 0 0\nedge 1 2 -1 0\nedge 1 3 0 0\nedge 1 3 0 -1\n"
            "edge 2 3 0 0\nedge 2 3 1 -1"
        )
        report = cross_verify(g, 1, 20)
        assert report.symbolic_status == "ok"
        assert report.fit_status == "ok"
        assert report.all_ok()

    @pytest.mark.parametrize("name", ["square", "honeycomb"])
    def test_decomposition_holds_on_four_times_the_radius(self, graphs, name):
        # disambiguate certifies the image on radius r; its parts must also
        # agree with the image far beyond it
        from ratcoord.cli import DISAMBIG_MARGIN
        from ratcoord.semilinear import _magnitude

        g = graphs[name]
        for target in range(1, g.num_orbits + 1):
            image = parikh_image(build_coordination_nfa(g, 1, target))
            r = _magnitude(image.parts) + DISAMBIG_MARGIN
            decomposition = disambiguate(image, box_radius=r)
            box = (-4 * r,) * (g.dim + 1), (4 * r,) * (g.dim + 1)
            assert validate_decomposition(image, decomposition, *box)


class TestSupercells:
    # a supercell has its net's coordination sequence from every copy of an
    # orbit: an oracle that needs no closed form
    @pytest.mark.parametrize(
        "text,m",
        [(SQUARE_TEXT, (2, 2)), (HONEYCOMB_TEXT, (2, 1)), (PCU_TEXT, (2, 1, 1))],
        ids=["sql2x2", "hcb2x1", "pcu2x1x1"],
    )
    def test_bfs_matches_the_net(self, text, m):
        g = parse_periodic_graph(text)
        big = supercell(g, m)
        assert big.num_orbits == g.num_orbits * prod(m)
        expected = bfs_coordination(g, 1, 20).values
        for origin in (1, prod(m)):  # the first and the last copy of orbit 1
            assert bfs_coordination(big, origin, 20).values == expected, origin

    @pytest.mark.parametrize(
        "text,m", [(SQUARE_TEXT, (2, 2)), (PCU_TEXT, (2, 1, 1))], ids=["sql2x2", "pcu2x1x1"]
    )
    def test_cover_distances_map_to_the_nets(self, text, m):
        # supercell vertex (orbit of (v, r), cell c) is the net's (v, m * c + r):
        # a wrong offset map moves vertices even where the sequence survives
        g = parse_periodic_graph(text)
        big = supercell(g, m)
        cells = list(itertools.product(*map(range, m)))
        keys = list(itertools.product(range(1, g.num_orbits + 1), cells))

        def in_net(u):
            v, residue = keys[u.orbit - 1]
            return CoverVertex(v, tuple(k * c + r for k, c, r in zip(m, u.shift, residue)))

        for origin in (1, prod(m)):
            start = CoverVertex(origin, (0,) * g.dim)
            mapped = {in_net(u): d for u, d in cover_distances(big, start, 8).items()}
            assert mapped == cover_distances(g, in_net(start), 8), origin

    @pytest.mark.parametrize(
        "text,m,gf",
        [(SQUARE_TEXT, (2, 2), SQUARE_GF), (HONEYCOMB_TEXT, (2, 1), HONEYCOMB_GF)],
        ids=["sql2x2", "hcb2x1"],
    )
    def test_both_paths_give_the_nets_gf(self, text, m, gf):
        big = supercell(parse_periodic_graph(text), m)
        report = pipeline_coordination_gf(big, 1, "both", 30)
        assert report.symbolic_status == "ok"
        assert report.gf_symbolic == report.gf_fit == gf
        assert report.all_ok()


# Graphs whose whole Parikh image failed the doubled-box check when the
# symbolic path decomposed the image, not its first-distance shell (ROADMAP
# item 2): four random quotient graphs, and the 2 x 1 supercell of hcb,
# which failed from origins 1 and 2.
SMALL_BOX_GRAPHS = [
    "dim 2\nvertices 2\nedge 1 2 -1 0\nedge 1 2 0 -1\nedge 1 2 0 1\nedge 1 2 1 1\n",
    "dim 2\nvertices 2\nedge 1 2 -1 0\nedge 1 2 0 1\nedge 1 2 1 -1\nedge 2 2 0 1\n",
    "dim 2\nvertices 2\nedge 1 2 -1 0\nedge 1 2 0 -1\nedge 1 2 0 0\nedge 1 2 1 1\n",
    "dim 2\nvertices 2\nedge 1 2 -1 1\nedge 1 2 0 -1\nedge 1 2 1 1\nedge 2 2 1 -1\n",
    "dim 2\nvertices 4\nedge 1 3 0 0\nedge 1 3 0 1\nedge 1 4 0 0\n"
    "edge 2 3 1 0\nedge 2 4 0 0\nedge 2 4 0 1\n",
]
SMALL_BOX_IDS = ["graph1", "graph2", "graph3", "graph4", "hcb2x1"]


class TestCertificationBoxTooSmall:
    @pytest.mark.parametrize("text", SMALL_BOX_GRAPHS, ids=SMALL_BOX_IDS)
    def test_decomposes(self, text):
        g = parse_periodic_graph(text)
        for origin in range(1, g.num_orbits + 1):
            report = cross_verify(g, origin, 24)
            assert report.symbolic_status == "ok", origin
            assert report.fit_status == "ok", origin
            assert report.gf_symbolic == report.gf_fit, origin
            assert report.all_ok(), origin


@st.composite
def small_quotient_graphs(draw):
    """Quotient graphs of dim 1-2 with 1-3 orbits and 1-4 edge orbits.

    Offsets lie in {-1, 0, 1}; a zero-offset self-edge or a repeated edge
    orbit is dropped, and a graph left with no edge is rejected.
    """
    dim = draw(st.integers(1, 2))
    orbits = draw(st.integers(1, 3))
    edge = st.tuples(
        st.integers(1, orbits),
        st.integers(1, orbits),
        st.tuples(*[st.integers(-1, 1)] * dim),
    )
    edges = {}
    for source, target, offset in draw(st.lists(edge, min_size=1, max_size=4)):
        if source != target or any(offset):
            edges.setdefault(canonical_edge_orbit(source, target, offset), None)
    assume(edges)
    return PeriodicGraph(dim, orbits, tuple(edges))


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(small_quotient_graphs())
    @example(parse_periodic_graph(SMALL_BOX_GRAPHS[0]))
    @example(parse_periodic_graph("dim 1\nvertices 2\nedge 1 1 1\n"))  # empty image
    def test_symbolic_equals_bfs_or_fails_explicitly(self, g):
        # compare to twice the largest certification radius, the radius of
        # the doubled box the decomposition is checked on
        radius = max(
            _magnitude(parikh_image(build_coordination_nfa(g, 1, t)).parts)
            + DISAMBIG_MARGIN
            for t in range(1, g.num_orbits + 1)
        )
        report = cross_verify(g, 1, 2 * radius)
        assert report.all_ok()
        if report.symbolic_status == "ok":
            pairs = {entry["pair"] for entry in report.agreement}
            assert "bfs_vs_symbolic" in pairs
        else:
            assert report.symbolic_status in ("decomposition_failed", "budget_exceeded")
            assert report.gf_symbolic is None


class TestExitCodes:
    def test_budget_exhaustion_maps_to_four(self, square, monkeypatch):
        import ratcoord.cli as cli

        def fail(*args, **kwargs):
            raise DecompositionError("forced failure")

        monkeypatch.setattr(cli, "symbolic_coordination_gf", fail)
        report = cli.pipeline_coordination_gf(square, 1, "symbolic", 15)
        assert report.symbolic_status == "decomposition_failed"
        assert report.produced_gf() is None
        assert cli._report_exit_code(report) == 4

    def test_fit_still_succeeds_when_symbolic_fails(self, square, monkeypatch):
        import ratcoord.cli as cli

        def fail(*args, **kwargs):
            raise DecompositionError("forced failure")

        monkeypatch.setattr(cli, "symbolic_coordination_gf", fail)
        report = cli.pipeline_coordination_gf(square, 1, "both", 20)
        assert report.symbolic_status == "decomposition_failed"
        assert report.gf_fit is not None
        assert cli._report_exit_code(report) == 0

    def test_coefficient_mismatch_exits_three(self, graph_files, monkeypatch, capsys):
        import ratcoord.cli as cli

        wrong = RationalGF((1, 3, 1), (1, -2, 1))
        monkeypatch.setattr(cli, "fit_rational", lambda *args: wrong)
        argv = ["gf", graph_files["square"], "--origin", "1", "--method", "fit"]
        assert main(argv) == 3
        assert "agreement bfs_vs_fit: mismatch@1" in capsys.readouterr().out

    def test_no_positive_functional_exits_four(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        payload = {"parts": [{"base": [0, 0], "periods": [[1, 0], [-1, 0]]}]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["semilinear", "decompose", "--json-input", str(path)]) == 4
        assert "no positive functional" in capsys.readouterr().err

    def test_symbolic_budget_exceeded_is_a_status(self, square, monkeypatch):
        import ratcoord.cli as cli

        monkeypatch.setattr(cli, "SYMBOLIC_BUDGET", 1)
        report = cli.pipeline_coordination_gf(square, 1, "both", 20)
        assert report.symbolic_status == "budget_exceeded"
        assert report.gf_symbolic is None
        assert report.gf_fit == SQUARE_GF
        assert cli._report_exit_code(report) == 0

    def test_doubled_box_check_flags_wrong_decomposition(self, square, monkeypatch):
        import ratcoord.cli as cli

        decompose, radii = cli.decompose_shell, []

        def add_far_point(image, r, budget):
            # (2r, 0, r + 1) lies outside the r-box, inside the doubled box,
            # and outside the square image's shell (a cell 2r away is at
            # distance 2r); it is added at r and again at 2r
            radii.append(r)
            result = decompose(image, r, budget)
            extra = LinearSet((2 * r, 0, r + 1), ())
            return SemilinearSet(result.parts + (extra,))

        monkeypatch.setattr(cli, "decompose_shell", add_far_point)
        report = cli.pipeline_coordination_gf(square, 1, "both", 20)
        assert report.symbolic_status == "decomposition_failed"
        assert report.gf_symbolic is None
        assert report.gf_fit == SQUARE_GF
        assert cli._report_exit_code(report) == 0
        r = radii[0]
        assert radii == [r, 2 * r]
        with pytest.raises(DecompositionError, match=f"radius {2 * r} and again at {4 * r}"):
            cli.symbolic_coordination_gf(square, 1)


class TestOriginsAndDisconnected:
    def test_honeycomb_other_origin(self, honeycomb):
        report = cross_verify(honeycomb, 2, 25)
        assert report.all_ok() and report.symbolic_status == "ok"
        assert report.gf_symbolic == HONEYCOMB_GF

    def test_unreached_orbit_contributes_nothing(self):
        from ratcoord import parse_periodic_graph

        g = parse_periodic_graph("dim 1\nvertices 2\nedge 1 1 1")
        connected = cross_verify(g, 1, 25)
        assert connected.all_ok()
        assert connected.gf_symbolic == RationalGF((1, 1), (1, -1))
        isolated = cross_verify(g, 2, 10)
        assert isolated.all_ok()
        assert isolated.gf_symbolic == RationalGF((1,))

    def test_out_of_range_origin_exits_two(self, graph_files, capsys):
        code = main(["bfs", graph_files["square"], "--origin", "7", "--depth", "3"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_negative_depth_exits_two(self, graph_files):
        code = main(["bfs", graph_files["square"], "--origin", "1", "--depth", "-1"])
        assert code == 2
