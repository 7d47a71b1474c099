import gc
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fracdecomp import cli, solver
from fracdecomp.cli import (
    EXIT_INADMISSIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _read_weights,
    run,
)
from fracdecomp.graph_core import (
    MultipartiteGraph,
    generate_admissible_instance,
    make_complete,
)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    assert run(["gen", "-r", "4", "-s", "3", "-n", "4", "--defects", "1",
                "--seed", "3", "--output", str(path)]) == EXIT_OK
    return path


class TestGen:
    def test_writes_valid_json(self, graph_file):
        data = json.loads(graph_file.read_text())
        assert data["r"] == 4 and data["s"] == 3 and data["n"] == 4
        assert len(data["missing_edges"]) == 6  # one transversal K_4

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "-r", "5", "-s", "3", "-n", "8", "--defects", "4",
                "--seed", "11"]
        assert run(args + ["--output", str(a)]) == EXIT_OK
        assert run(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_args_is_usage_error(self):
        assert run(["gen", "-r", "4"]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("r", ["4", "5"])
    def test_negative_defects_is_usage_error(self, capsys, r):
        assert run(["gen", "-r", r, "-s", "3", "-n", "4", "--defects", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        assert run(["gen", "-r", "4", "-s", "3", "-n", "2",
                    "--input", str(tmp_path / "none.json"),
                    "--output", str(path)]) == EXIT_USAGE
        assert not path.exists() and "--input" in capsys.readouterr().err


class TestInputExcludesParameters:
    """--input takes the graph from its file, so a flag that would build one
    from parameters is refused, not ignored; an explicit default counts."""

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @pytest.mark.parametrize("flags", [
        ["-r", "9", "-s", "7", "-n", "100", "--defects", "5"],
        ["-r", "4"], ["-s", "3"], ["-n", "4"], ["--defects", "0"], ["--seed", "0"],
    ])
    def test_parameter_flag_is_refused(self, graph_file, tmp_path, capsys,
                                       command, flags):
        out = tmp_path / "out.json"
        assert run([command, "--input", str(graph_file), *flags,
                    "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert "error:" in captured.err and flags[0] in captured.err

    def test_parameters_alone_still_build_the_graph(self, graph_file, capsys):
        assert run(["check", "-r", "4", "-s", "3", "-n", "4", "--defects", "1",
                    "--seed", "3"]) == EXIT_OK
        from_flags = capsys.readouterr().out
        assert run(["check", "--input", str(graph_file)]) == EXIT_OK
        assert capsys.readouterr().out == from_flags


class TestSeedNeedsDefects:
    """Without defects the graph is complete and draws nothing, so --seed is
    refused, not ignored; an explicit --seed 0 counts as given."""

    @pytest.mark.parametrize("command", ["gen", "check", "decompose", "bench"])
    @pytest.mark.parametrize("defects", [[], ["--defects", "0"]])
    @pytest.mark.parametrize("seed", ["7", "0"])
    def test_seed_without_defects_is_refused(self, tmp_path, capsys, command,
                                             defects, seed):
        sizes = ["--n-values", "2"] if command == "bench" else ["-n", "2"]
        out = tmp_path / "out.json"
        assert run([command, "-r", "5", "-s", "3", *sizes, *defects,
                    "--seed", seed, "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert "error:" in captured.err and "--seed" in captured.err

    @pytest.mark.parametrize("command", ["gen", "check", "decompose"])
    @pytest.mark.parametrize("defects", [[], ["--defects", "0"]])
    def test_no_seed_builds_the_complete_graph(self, tmp_path, command, defects):
        out = tmp_path / "out.json"
        assert run([command, "-r", "5", "-s", "3", "-n", "2", *defects,
                    "--output", str(out)]) == EXIT_OK
        if command == "gen":
            assert json.loads(out.read_text())["missing_edges"] == []

    def test_seed_with_defects_draws_the_graph(self, tmp_path):
        paths = [tmp_path / f"{seed}.json" for seed in ("0", "1")]
        for seed, path in zip(("0", "1"), paths):
            assert run(["gen", "-r", "5", "-s", "3", "-n", "8", "--defects", "4",
                        "--seed", seed, "--output", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() != paths[1].read_bytes()


class TestCheck:
    def test_admissible_graph_exits_zero(self, graph_file, capsys):
        assert run(["check", "--input", str(graph_file)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["nec1_ok"] and out["nec2_ok"]
        assert out["min_partite_degree"] == 3

    def test_inadmissible_graph_exits_two(self, tmp_path):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        path = tmp_path / "bad.json"
        path.write_text(g.to_json())
        assert run(["check", "--input", str(path)]) == EXIT_INADMISSIBLE

    @pytest.mark.parametrize("record", [
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[3, 0, 4, 100]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[0, 0, 1, 0, 2]]},
        [5, 3, 4],
    ])
    def test_malformed_graph_exits_one(self, tmp_path, capsys, record):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        assert run(["check", "--input", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_graph_exits_one(self, graph_file, capsys):
        graph_file.write_bytes(graph_file.read_bytes().replace(b'"r"', b'"\xff"', 1))
        assert run(["check", "--input", str(graph_file)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_complete_from_parameters(self, capsys):
        assert run(["check", "-r", "5", "-s", "3", "-n", "2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["min_partite_degree"] == 2


class TestDecomposeAndVerify:
    def test_round_trip(self, graph_file, tmp_path):
        weights = tmp_path / "weights.json"
        report = tmp_path / "report.json"
        code = run(["decompose", "--input", str(graph_file),
                    "--output", str(weights), "--report", str(report)])
        assert code == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["converged"]
        assert rep["max_edge_sum_error"] < 1e-8
        assert rep["eta"] is not None  # r = s+1 path
        assert run(["verify", "--input", str(graph_file),
                    "--weights", str(weights)]) == EXIT_OK

    def test_report_sizes(self, graph_file, tmp_path):
        weights, report = tmp_path / "weights.json", tmp_path / "report.json"
        assert run(["decompose", "--input", str(graph_file), "--output", str(weights),
                    "--report", str(report), "--include-zero-weights"]) == EXIT_OK
        rep = json.loads(report.read_text())
        missing = len(json.loads(graph_file.read_text())["missing_edges"])
        assert rep["num_missing"] == missing
        assert rep["num_edges"] == 6 * 16 - missing
        assert rep["num_cliques"] == len(json.loads(weights.read_text()))
        assert rep["num_broken"] > 0

    def test_report_residuals_and_signs_of_y(self, graph_file, tmp_path):
        report = tmp_path / "report.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(tmp_path / "w.json"),
                    "--report", str(report)]) == EXIT_OK
        rep = json.loads(report.read_text())
        assert len(rep["residuals"]) == rep["iterations"]
        assert rep["residuals"][-1] == rep["final_residual_inf"]
        assert rep["num_negative_y"] == 0 and rep["min_y"] > 0

    def test_report_times_the_writer(self, graph_file, tmp_path):
        report = tmp_path / "report.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(tmp_path / "w.json"),
                    "--report", str(report)]) == EXIT_OK
        timings = json.loads(report.read_text())["timings"]
        assert timings["write"] >= 0
        assert {"admissibility", "enumerate", "solve", "verify"} <= set(timings)

    def test_deterministic_weights_file(self, graph_file, tmp_path):
        w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for w in (w1, w2):
            assert run(["decompose", "--input", str(graph_file),
                        "--output", str(w),
                        "--report", str(tmp_path / "r.json")]) == EXIT_OK
        assert w1.read_bytes() == w2.read_bytes()

    def test_inadmissible_input_exits_two(self, tmp_path):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        path = tmp_path / "bad.json"
        path.write_text(g.to_json())
        assert run(["decompose", "--input", str(path),
                    "--output", str(tmp_path / "w.json")]) == EXIT_INADMISSIBLE

    def test_perturbed_weights_fail_verification(self, graph_file, tmp_path):
        weights = tmp_path / "weights.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(weights),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK
        records = json.loads(weights.read_text())
        records[0]["weight"] += 1e-3
        weights.write_text(json.dumps(records))
        assert run(["verify", "--input", str(graph_file),
                    "--weights", str(weights)]) == EXIT_VERIFY_FAILED

    def test_clique_on_missing_edge_fails_verification(self, graph_file, tmp_path):
        g = json.loads(graph_file.read_text())
        p1, i1, p2, i2 = g["missing_edges"][0]
        other = next(p for p in range(4) if p not in (p1, p2))
        bad = [{"clique": [[p1, i1], [p2, i2], [other, 0]], "weight": 0.5}]
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(bad))
        assert run(["verify", "--input", str(graph_file),
                    "--weights", str(weights)]) == EXIT_VERIFY_FAILED

    def test_removed_flags_are_usage_errors(self, graph_file, tmp_path):
        for flag in (["--force"], ["--workers", "2"]):
            assert run(["decompose", "--input", str(graph_file),
                        "--output", str(tmp_path / "w.json")] + flag) == EXIT_USAGE

    def test_negative_weight_exits_three(self, graph_file, tmp_path, monkeypatch):
        def negative(*args, **kwargs):
            raise solver.NegativeWeight("clique weight -1e-3")
        monkeypatch.setattr(solver, "decompose", negative)
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(tmp_path / "w.json")]) == EXIT_VERIFY_FAILED


    def test_loose_tolerance_exits_three(self, graph_file, tmp_path):
        report = tmp_path / "r.json"
        assert run(["decompose", "--input", str(graph_file), "--tol", "1e-2",
                    "--output", str(tmp_path / "w.json"),
                    "--report", str(report)]) == EXIT_VERIFY_FAILED
        assert json.loads(report.read_text())["verified"] is False


class TestSolveOptions:
    @pytest.mark.parametrize("command,graph", [
        ("decompose", ["-r", "5", "-s", "3", "-n", "2"]),
        ("bench", ["-r", "5", "-s", "3", "--n-values", "2"])])
    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"),
        ("--tol", "abc"), ("--max-iter", "0"), ("--max-iter", "-3"),
        ("--max-iter", "1.5")])
    def test_bad_value_is_usage_error(self, capsys, command, graph, flag, value):
        assert run([command, *graph, flag, value]) == EXIT_USAGE
        assert flag in capsys.readouterr().err


class TestEtaOption:
    @pytest.mark.parametrize("command", ["decompose", "spectrum"])
    @pytest.mark.parametrize("eta", ["abc", "1/0", "-1", "0"])
    def test_bad_eta_is_usage_error(self, capsys, command, eta):
        code = run([command, "-r", "4", "-s", "3", "-n", "2", "--eta", eta])
        assert code == EXIT_USAGE
        assert "--eta" in capsys.readouterr().err

    def test_eta_reaches_the_solver(self, graph_file, tmp_path):
        # eta* = n^(s-2) s / (s+2) = 12/5 is the default at (4, 3, 4)
        w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for w, flag in ((w1, []), (w2, ["--eta", "12/5"])):
            assert run(["decompose", "--input", str(graph_file),
                        "--output", str(w),
                        "--report", str(tmp_path / "r.json")] + flag) == EXIT_OK
        assert w1.read_bytes() == w2.read_bytes()


class TestWeightsFile:
    @pytest.fixture
    def solved(self, graph_file):
        g = MultipartiteGraph.from_json(graph_file.read_text())
        decomp, _ = solver.decompose(g)
        records = [{"clique": K, "weight": w} for K, w in decomp.items()]
        return decomp, records

    def _decompose(self, graph_file, tmp_path, *flags):
        weights = tmp_path / "weights.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(weights),
                    "--report", str(tmp_path / "r.json"), *flags]) == EXIT_OK
        return weights.read_text()

    def test_compact_json_of_the_records(self, graph_file, tmp_path, solved):
        _, records = solved
        text = self._decompose(graph_file, tmp_path)
        assert text == json.dumps(records)
        assert json.loads(text) == json.loads(json.dumps(records, indent=2))

    def _zero_some(self, monkeypatch, count):
        real = solver.decompose

        def with_zeros(*args, **kwargs):
            decomp, rep = real(*args, **kwargs)
            cubes = decomp.cubes

            def zeroed():  # the first `count` cliques in block order weigh 0
                left = count
                for parts, mask, cube in cubes():
                    cells = np.flatnonzero(mask)[:left]
                    cube.reshape(-1)[cells] = 0.0
                    left -= cells.size
                    yield parts, mask, cube
            monkeypatch.setattr(decomp, "cubes", zeroed)
            return decomp, rep
        monkeypatch.setattr(solver, "decompose", with_zeros)

    def test_zero_weights_dropped_unless_asked(self, graph_file, tmp_path,
                                               monkeypatch, solved):
        _, records = solved
        self._zero_some(monkeypatch, 3)
        kept = json.loads(self._decompose(graph_file, tmp_path))
        assert kept == json.loads(json.dumps(records[3:]))
        every = json.loads(self._decompose(
            graph_file, tmp_path, "--include-zero-weights"))
        assert [rec["weight"] for rec in every[:3]] == [0.0] * 3
        assert len(every) == len(records)

    def test_no_records_writes_empty_list(self, graph_file, tmp_path,
                                          monkeypatch, solved):
        self._zero_some(monkeypatch, len(solved[1]))
        assert self._decompose(graph_file, tmp_path) == "[]"

    def test_stdout_without_output(self, graph_file, tmp_path, capsys, solved):
        _, records = solved
        assert run(["decompose", "--input", str(graph_file),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(records) + "\n"

    def test_verify_accepts_indented_file(self, graph_file, tmp_path, solved):
        weights = tmp_path / "indented.json"
        weights.write_text(json.dumps(solved[1], indent=2))
        assert run(["verify", "--input", str(graph_file),
                    "--weights", str(weights)]) == EXIT_OK

    def _indented(self, graph_file, tmp_path):
        """The writer's file re-indented, which only the JSON path reads."""
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(
            json.loads(self._decompose(graph_file, tmp_path)), indent=2))
        return weights

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text,code", [
        (None, EXIT_OK), ("[{", EXIT_USAGE), ('{"clique": 1}', EXIT_USAGE)])
    def test_verify_restores_gc_state(self, graph_file, tmp_path, monkeypatch,
                                      enabled, text, code):
        weights = tmp_path / "weights.json"
        if text is None:
            self._indented(graph_file, tmp_path)
        else:
            weights.write_text(text)
        real_load = json.load
        seen = []

        def spy(fh):
            seen.append(gc.isenabled())
            return real_load(fh)
        monkeypatch.setattr(json, "load", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["verify", "--input", str(graph_file),
                        "--weights", str(weights)]) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    def test_records_freed_before_gc_resumes(self, graph_file, tmp_path,
                                             monkeypatch):
        self._indented(graph_file, tmp_path)
        real_read = cli._read_weights
        seen = []

        def spy(records, s):
            seen.append(gc.isenabled())
            return real_read(records, s)
        monkeypatch.setattr(cli, "_read_weights", spy)
        assert gc.isenabled()
        assert run(["verify", "--input", str(graph_file),
                    "--weights", str(tmp_path / "weights.json")]) == EXIT_OK
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_writer_file_is_scanned_not_parsed(self, graph_file, tmp_path,
                                              monkeypatch, enabled):
        self._decompose(graph_file, tmp_path)

        def refuse(*args):
            raise AssertionError("the writer's file went through json.load")
        monkeypatch.setattr(json, "load", refuse)
        monkeypatch.setattr(cli, "_read_weights", refuse)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["verify", "--input", str(graph_file),
                        "--weights", str(tmp_path / "weights.json")]) == EXIT_OK
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestDevMode:
    """The CLI as a user runs it, under Python's development mode with every
    warning an error: an unclosed file or a deprecated call fails here."""

    def _cli(self, *args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "fracdecomp.cli", *args],
            capture_output=True, text=True, env=env, timeout=120)

    def test_decompose_and_verify_warn_nothing(self, graph_file, tmp_path):
        weights, report = tmp_path / "weights.json", tmp_path / "report.json"
        done = self._cli("decompose", "--input", str(graph_file),
                         "--output", str(weights), "--report", str(report))
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "", "")
        assert json.loads(report.read_text())["verified"] is True

        # weights to stdout, the report to stderr, nothing else on either
        done = self._cli("decompose", "--input", str(graph_file))
        assert done.returncode == EXIT_OK
        assert done.stdout == weights.read_text() + "\n"
        assert json.loads(done.stderr)["verified"] is True

        done = self._cli("verify", "--input", str(graph_file),
                         "--weights", str(weights))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert json.loads(done.stdout)["max_edge_sum_error"] < 1e-8

    def test_verify_both_readers_warn_nothing(self, graph_file, tmp_path):
        printed = self._cli("decompose", "--input", str(graph_file)).stdout
        indented, captured = tmp_path / "indented.json", tmp_path / "captured.json"
        indented.write_text(json.dumps(json.loads(printed), indent=2))  # json path
        captured.write_text(printed)  # scan path, with the trailing newline
        assert printed.endswith("]\n")
        results = []
        for weights in (indented, captured):
            done = self._cli("verify", "--input", str(graph_file),
                             "--weights", str(weights))
            assert (done.returncode, done.stderr) == (EXIT_OK, "")
            results.append(done.stdout)
        assert results[0] == results[1]


class TestVerifyRejects:
    @pytest.fixture
    def solved(self, graph_file, tmp_path):
        weights = tmp_path / "weights.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(weights),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK
        return graph_file, weights, json.loads(weights.read_text())

    def _verify(self, solved, records, capsys):
        graph_file, weights, _ = solved
        weights.write_text(json.dumps(records))
        code = run(["verify", "--input", str(graph_file),
                    "--weights", str(weights)])
        return code, capsys.readouterr().err

    def test_negative_weight(self, solved, capsys):
        records = solved[2]
        records[3]["weight"] = -1e-9
        code, err = self._verify(solved, records, capsys)
        assert code == EXIT_VERIFY_FAILED and "negative" in err

    def test_uncovered_edge(self, solved, capsys):
        records = solved[2]
        u, w = records[0]["clique"][:2]
        kept = [rec for rec in records
                if not (u in rec["clique"] and w in rec["clique"])]
        code, err = self._verify(solved, kept, capsys)
        assert code == EXIT_VERIFY_FAILED and "no clique" in err

    def test_vertex_order_within_clique_is_free(self, solved, capsys):
        records = solved[2]
        for rec in records:
            rec["clique"].reverse()
        code, _ = self._verify(solved, records, capsys)
        assert code == EXIT_OK

    @pytest.mark.parametrize("records", [
        {"clique": [[0, 0], [1, 0], [2, 0]], "weight": 1.0},
        [{"clique": [[0, 0], [1, 0]], "weight": 1.0}],
        [{"clique": [[0, 0], [1, 0], [2, 0.5]], "weight": 1.0}],
        [{"clique": [[0, 0], [1, 0], [2, 0]]}],
        [{"clique": [[0, 0], [1, 0], [2, 0]], "weight": "1"}],
    ])
    def test_malformed_weights_exit_one(self, solved, capsys, records):
        code, err = self._verify(solved, records, capsys)
        assert code == EXIT_USAGE and "error:" in err

    @pytest.mark.parametrize("clique", [
        [[0, 0, 0], [1], [2, 0]],  # six entries, but not three pairs
        [[0, 0], [1, 0], [2, 2.0]],
        [[0, 0], [1, True], [2, 0]],
        [[0, 0], [1, "0"], [2, 0]],
        [[0, 0], [1, 2 ** 70], [2, 0]],
        [[0, 0], "01", [2, 0]],
        "012",
    ])
    def test_malformed_vertex_entries_exit_one(self, solved, capsys, clique):
        records = solved[2]
        records[1]["clique"] = clique
        code, err = self._verify(solved, records, capsys)
        assert code == EXIT_USAGE and "error:" in err

    @pytest.mark.parametrize("weight", [True, False])
    def test_malformed_weight_entries_exit_one(self, solved, capsys, weight):
        records = solved[2]
        records[1]["weight"] = weight
        code, err = self._verify(solved, records, capsys)
        assert code == EXIT_USAGE and "error:" in err

    @staticmethod
    def _index(new):
        """An edit of the first clique's first vertex index."""
        def edit(data):
            head = b'[{"clique": [[0, '
            return head + new + data[data.index(b"]", len(head)):]
        return edit

    @staticmethod
    def _weight(new):
        """An edit of the first record's weight."""
        def edit(data):
            start = data.index(b'"weight": ') + len(b'"weight": ')
            return data[:start] + new + data[data.index(b"}", start):]
        return edit

    @staticmethod
    def _swap_keys(data):
        end = data.index(b"}") + 1
        clique, weight = data[len(b'[{"clique": '):end - 1].split(b', "weight": ')
        return b'[{"weight": ' + weight + b', "clique": ' + clique + b"}" + data[end:]

    @pytest.mark.parametrize("edit,code", [
        (_index(b"01"), EXIT_USAGE),
        (_weight(b"+1"), EXIT_USAGE),
        (_weight(b"1."), EXIT_USAGE),
        (_weight(b".5"), EXIT_USAGE),
        (_index(b"-0"), EXIT_OK),
        (_weight(b"1E5"), EXIT_VERIFY_FAILED),
        (_weight(b"1e400"), EXIT_VERIFY_FAILED),
        (_index(str(2 ** 70).encode()), EXIT_USAGE),
        (_index(b"-1"), EXIT_VERIFY_FAILED),
        (_weight(b"NaN"), EXIT_VERIFY_FAILED),
        (_weight(b"true"), EXIT_USAGE),
        (lambda data: data.replace(b'"clique": ', b'"clique":  ', 1), EXIT_OK),
        (lambda data: b'"clique";'.join(data.rsplit(b'"clique":', 1)), EXIT_USAGE),
        (lambda data: data.replace(b'"clique"', b'"cliqu5"', 1), EXIT_USAGE),
        (lambda data: data.replace(b", [1, 0], ", b", [1, ]0, ", 1), EXIT_USAGE),
        (_swap_keys, EXIT_OK),
        (lambda data: data[:-1] + b", ]", EXIT_USAGE),
        (lambda data: b"\xef\xbb\xbf" + data, EXIT_USAGE),
        (lambda data: data.replace(b"[", b"[\xff", 1), EXIT_USAGE),
    ], ids=["01", "+1", "1.", ".5", "-0", "1E5", "1e400", "70-bit index",
            "-1 index", "NaN", "true", "doubled space", "last colon",
            "key digit", "moved index", "swapped keys", "trailing comma", "BOM",
            "xff"])
    def test_edited_writer_file_exits_as_json_reads_it(
            self, solved, monkeypatch, capsys, edit, code):
        graph_file, weights, _ = solved
        data = weights.read_bytes()
        weights.write_bytes(edit(data))
        assert weights.read_bytes() != data
        args = ["verify", "--input", str(graph_file), "--weights", str(weights)]
        assert run(args) == code
        scanned = capsys.readouterr()
        assert code != EXIT_USAGE or "error:" in scanned.err
        # the JSON reader alone, as for any file not in the writer's layout
        monkeypatch.setattr(cli, "_scan_weights", lambda data, s: None)
        assert run(args) == code
        assert capsys.readouterr() == scanned

    def test_read_weights_matches_nested_build(self, solved):
        records = solved[2]
        cliques, weights = _read_weights(records, 3)
        want = np.array([rec["clique"] for rec in records])
        assert cliques.dtype == np.int64 and np.array_equal(cliques, want)
        assert np.array_equal(weights, [rec["weight"] for rec in records])


class _RandomBlocks:
    """A decomposition stand-in: a few blocks of random cliques of a host
    (r, s, 120), weights of assorted magnitudes and float texts, some 0."""

    def __init__(self, r, s, seed):
        rng = np.random.default_rng(seed)
        special = [0.0, 1.0, 1 / 3, 1e16, 1.5e-07, 5e-324, 123456789.0, 0.1]
        self._blocks = []
        for parts in list(combinations(range(r), s))[:3]:
            index = np.sort(rng.integers(0, 120, size=(40, s)), axis=0)
            weights = rng.random(40) * 10.0 ** rng.integers(-9, 4, size=40)
            weights[rng.integers(0, 40, size=8)] = special
            weights[rng.integers(0, 40, size=4)] = 0.0
            self._blocks.append((parts, index, weights))

    def blocks(self):
        yield from self._blocks


class TestScanWeights:
    """The writer's text scanned, against json.loads and `_read_weights`."""

    @staticmethod
    def _assert_same(text, s):
        got = cli._scan_weights(text.encode(), s)
        want = _read_weights(json.loads(text), s)
        assert got is not None
        assert got[0].dtype == want[0].dtype == np.int64
        assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype == np.float64
        assert got[1].tobytes() == want[1].tobytes()  # bit for bit

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("s,r", [(3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (5, 7)])
    def test_writer_text_reads_as_json_does(self, tmp_path, capsys, s, r,
                                            include_zero):
        stub = _RandomBlocks(r, s, seed=10 * s + r)
        path = tmp_path / "weights.json"
        cli._write_weights(str(path), stub, 120, include_zero)
        cli._write_weights(None, stub, 120, include_zero)
        printed = capsys.readouterr().out
        assert printed == path.read_text() + "\n"
        assert ('"weight": 0.0}' in printed) == include_zero
        for text in (path.read_text(), printed):
            self._assert_same(text, s)

    @pytest.mark.parametrize("g", [
        generate_admissible_instance(5, 3, 6, 3, seed=1),
        make_complete(5, 4, 3), make_complete(7, 5, 2),
    ])
    def test_decomposition_text_reads_as_json_does(self, capsys, g):
        decomp, _ = solver.decompose(g)
        cli._write_weights(None, decomp, g.structure.n, False)
        self._assert_same(capsys.readouterr().out, g.structure.s)

    def test_vertex_entries_of_every_length(self):
        """Entries of 1 to 18 digits, whose place values overflow a uint8."""
        entries = [0, 9, 10, 99, 100, 399, 999, 4096, 98765, 10 ** 17 + 3,
                   999999999999999999]
        text = json.dumps([{"clique": [[i, j], [j, i], [i, i]], "weight": 0.5}
                           for i in entries for j in entries])
        self._assert_same(text, 3)

    @pytest.mark.parametrize("text", ["[]", "[]\n"])
    def test_empty_list(self, text):
        self._assert_same(text, 3)

    @pytest.mark.parametrize("text", [
        "", "[", "[ ]", "[]\n\n", " []", '[{"clique": [[0, 0], [1, 0]], "weight": 1}]',
        '[{"clique": [[0, 0], [1, 0], [2, 0]], "weight": 1}, ]',
        '[{"clique": [[0, 0], [1, 0], [2, 0], [3, 0]], "weight": 1}]',
        '[{"clique": [[0, 0], [1, 0], [2, 0]], "weight": 1}]\r\n',
    ])
    def test_other_text_is_left_to_json(self, text):
        assert cli._scan_weights(text.encode(), 3) is None


class TestDistinctWeightTexts:
    """The scanner's weights: each distinct text hashed, checked and read
    by json once."""

    @pytest.fixture
    def written(self, graph_file, tmp_path):
        weights = tmp_path / "weights.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(weights),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK
        args = ["verify", "--input", str(graph_file), "--weights", str(weights)]
        return weights, args

    def test_shared_hash_leaves_the_file_to_json(self, written, monkeypatch,
                                                 capsys):
        weights, args = written
        data = weights.read_bytes()
        assert len({rec["weight"] for rec in json.loads(data)}) > 1
        assert run(args) == EXIT_OK
        scanned = capsys.readouterr()
        # every text hashes alike, so two different texts share a hash
        monkeypatch.setattr(cli, "_row_hashes",
                            lambda words: np.zeros(len(words), dtype=np.uint64))
        assert cli._scan_weights(data, 3) is None
        real_read, read = cli._read_weights, []

        def spy(records, s):
            read.append(len(records))
            return real_read(records, s)
        monkeypatch.setattr(cli, "_read_weights", spy)
        assert run(args) == EXIT_OK
        assert capsys.readouterr() == scanned
        assert read == [len(json.loads(data))]

    @pytest.mark.parametrize("every", [False, True])
    @pytest.mark.parametrize("bad", [b"1.", b".5", b"+1", b"01", b"1e", b"-", b"1e5e"])
    def test_non_json_weight_text_exits_one(self, written, capsys, bad, every):
        """A text of number bytes that is no JSON number, in place of the
        first record's weight text: in that record, or in every record
        whose weight has that text."""
        weights, args = written
        data = weights.read_bytes()
        start = data.index(b'"weight": ')
        old = data[start:data.index(b"}", start) + 1]
        edited = data.replace(old, b'"weight": ' + bad + b"}", -1 if every else 1)
        assert edited.count(bad + b"}") == (data.count(old) if every else 1)
        weights.write_bytes(edited)
        assert cli._scan_weights(edited, 3) is None
        assert run(args) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestParser:
    """The argparse tree is built by the first run and kept; each run looks
    its command up on the module."""

    def test_built_once(self, graph_file, monkeypatch, capsys):
        real_build, built = cli.build_parser, []

        def counting_build():
            built.append(1)
            return real_build()
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(2):
            assert run(["check", "--input", str(graph_file)]) == EXIT_OK
        assert run(["nonsense"]) == EXIT_USAGE
        assert run(["check", "--input", str(graph_file)]) == EXIT_OK
        assert built == [1]

    def test_flag_does_not_carry_over(self, graph_file, tmp_path, monkeypatch):
        real_decompose, seen = cli.cmd_decompose, []

        def spy(args):
            seen.append(args.include_zero_weights)
            return real_decompose(args)
        monkeypatch.setattr(cli, "cmd_decompose", spy)
        for flags in (["--include-zero-weights"], []):
            assert run(["decompose", "--input", str(graph_file),
                        "--output", str(tmp_path / "weights.json"),
                        "--report", str(tmp_path / "r.json"), *flags]) == EXIT_OK
        assert seen == [True, False]

    def test_replaced_command_is_reached(self, graph_file, tmp_path,
                                         monkeypatch):
        weights = tmp_path / "weights.json"
        assert run(["decompose", "--input", str(graph_file),
                    "--output", str(weights),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK
        args = ["verify", "--input", str(graph_file), "--weights", str(weights),
                "--output", str(tmp_path / "verify.json")]
        assert run(args) == EXIT_OK and cli._parser is not None
        reached = []

        def stand_in(args):
            reached.append(args.weights)
            return EXIT_VERIFY_FAILED
        monkeypatch.setattr(cli, "cmd_verify", stand_in)
        assert run(args) == EXIT_VERIFY_FAILED
        assert reached == [str(weights)]


def test_cli_eta_weights_file_digest(tmp_path):
    """sha256 of the weights file of the benchmark's cli_eta instance,
    (5, 4, 12) with 6 missing edges at cap 1, seed 0, computed before the
    writer built its records from text tables. A rewrite of the writer must
    keep the file byte for byte."""
    graph, weights = tmp_path / "graph.json", tmp_path / "weights.json"
    graph.write_text(generate_admissible_instance(
        5, 4, 12, 6, seed=0, per_part_cap=1).to_json())
    assert run(["decompose", "--input", str(graph), "--output", str(weights),
                "--report", str(tmp_path / "r.json")]) == EXIT_OK
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == (
        "4db99a05b53ba83e429e1fff727e4ad8635e97f8d228f167b0e4f832796a8f90")


class TestBench:
    def _bench(self, capsys, *args):
        code = run(["bench", *args])
        return code, capsys.readouterr()

    def test_plain_regime(self, capsys):
        code, out = self._bench(capsys, "-r", "5", "-s", "3", "--n-values", "2",
                                "--defects", "1")
        assert code == EXIT_OK
        rows = json.loads(out.out)
        assert [(row["n"], row["edges"]) for row in rows] == [(2, 40)]
        assert isinstance(rows[0]["dense_s"], float)

    def test_eta_regime_shifts_the_dense_solve(self, capsys):
        code, out = self._bench(capsys, "-r", "4", "-s", "3", "--n-values", "2", "3")
        assert code == EXIT_OK
        rows = json.loads(out.out)
        assert [row["n"] for row in rows] == [2, 3]
        assert all(isinstance(row["dense_s"], float) for row in rows)

    def test_negative_weight_exits_three(self, capsys):
        code, out = self._bench(capsys, "-r", "5", "-s", "4", "--n-values", "2",
                                "--defects", "1")
        assert code == EXIT_VERIFY_FAILED and "clique weight" in out.err

    def test_non_convergence_exits_four(self, capsys):
        code, out = self._bench(capsys, "-r", "5", "-s", "3", "--n-values", "3",
                                "--defects", "3", "--max-iter", "1")
        assert code == EXIT_NO_CONVERGENCE and "no convergence" in out.err


class TestInspectionCommands:
    def test_tables(self, tmp_path):
        out = tmp_path / "tables.json"
        assert run(["tables", "-r", "5", "-n", "2",
                    "--output", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["valencies"] == [1, 2, 1, 12, 12, 12]
        assert data["intersection_numbers"]["p^0"][3][3] == 12

    def test_spectrum(self, capsys):
        assert run(["spectrum", "-r", "5", "-s", "3", "-n", "2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["eigenvalues_float"] == [18, 8, 2, 12, 4, 6]
        assert data["multiplicities"] == [1, 4, 5, 5, 15, 10]

    def test_spectrum_eta(self, capsys):
        assert run(["spectrum", "-r", "4", "-s", "3", "-n", "2",
                    "--eta", "6/5"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert all(v > 0 for v in data["eigenvalues_float"])

    def test_xval_small_grid(self, tmp_path):
        out = tmp_path / "xval.json"
        assert run(["xval", "--r-values", "4", "5", "--s-values", "3",
                    "--n-values", "1", "2", "--output", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert all(row["spectrum"] == "pass" for row in rows)
