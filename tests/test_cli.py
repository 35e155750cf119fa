import errno
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedflow import (
    Poly,
    SignedGraph,
    abelian_groups_up_to,
    cli,
    count_integer_nflows,
    flow_polynomial,
    nonzero_sum_count,
    parse_graph_text,
    signatures_equivalent,
)
from signedflow.graph import graph_fingerprint, graph_to_text

from corpusgen import BARBELL, DIGON_PM, NEG_LOOP, POS_LOOP, TRIANGLE, g, k4_with_signs


@pytest.fixture
def write_graph(tmp_path):
    counter = [0]

    def _write(graph):
        counter[0] += 1
        path = tmp_path / f"graph{counter[0]}.txt"
        path.write_text(graph_to_text(graph))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def exit_raises(monkeypatch):
    """run() ends the process with os._exit; in the test session that
    becomes a SystemExit with the same code."""
    def _exit(code):
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", _exit)


class TestCount:
    def test_negative_loop_over_klein_four(self, capsys, write_graph):
        code, out = run_cli(capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", "2,2")
        assert code == 0
        assert "nowhere-zero flows: 3" in out

    def test_a_leading_byte_order_mark_is_read_past(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfvertices 1\nedge 0 0 -\n")  # as some Windows editors save it
        code, out = run_cli(capsys, "count", "--graph", str(path), "--group", "2,2", "--json")
        assert code == 0
        assert json.loads(out)["results"]["count"] == 3

    def test_positive_loop_over_z5(self, capsys, write_graph):
        code, out = run_cli(capsys, "count", "--graph", write_graph(POS_LOOP), "--group", "5")
        assert code == 0
        assert "nowhere-zero flows: 4" in out

    def test_edgeless_graph(self, capsys, write_graph):
        code, out = run_cli(capsys, "count", "--graph", write_graph(g(3)), "--group", "6")
        assert code == 0
        assert "nowhere-zero flows: 1" in out

    def test_json_payload(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", "2,2", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["results"]["count"] == 3
        assert report["results"]["group"]["two_rank"] == 2

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "count", "--graph", str(tmp_path / "nope.txt"), "--group", "2")
        assert code == 2

    def test_bad_group_is_an_input_error(self, capsys, write_graph):
        code, _ = run_cli(capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", "2,x")
        assert code == 2

    def test_budget_exceeded(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "count", "--graph", write_graph(TRIANGLE), "--group", "9", "--budget", "5"
        )
        assert code == 3

    def test_twelve_hundred_parallel_edges(self, capsys, write_graph):
        graph = SignedGraph(2, ((0, 1, 1),) * 1200)
        code, out = run_cli(capsys, "count", "--graph", write_graph(graph), "--group", "2")
        assert code == 0
        assert "nowhere-zero flows: 1" in out

    def test_twelve_hundred_parallel_edges_over_z3_fit_the_default_budget(self, capsys, write_graph):
        graph = SignedGraph(2, ((0, 1, 1),) * 1200)
        code, out = run_cli(capsys, "count", "--graph", write_graph(graph), "--group", "3")
        assert code == 0
        assert f"nowhere-zero flows: {nonzero_sum_count(1200, 3)}" in out

    def test_count_longer_than_the_default_int_text_limit(self, capsys, write_graph):
        # 4,335 digits: CPython refuses int <-> str conversions past 4,300 by default
        graph = SignedGraph(2, ((0, 1, 1),) * 14400)
        code, out = run_cli(capsys, "count", "--graph", write_graph(graph), "--group", "3")
        assert code == 0
        assert out.splitlines()[-1] == f"nowhere-zero flows: {(2**14400 + 2) // 3}"

    def test_a_group_of_order_past_sys_maxsize_is_a_budget_refusal(self, capsys, write_graph):
        # its 2^63 nonzero values are one range, too long for len()
        path = write_graph(g(2, (0, 1, 1)))
        assert cli.main(["count", "--graph", path, "--group", str(2**63 + 1)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: up to ") and err.endswith(" exceed budget 100000000\n")

    def test_negative_budget_is_an_input_error(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "count", "--graph", write_graph(TRIANGLE), "--group", "3", "--budget", "-5",
            "--json",
        )
        assert code == 2
        assert json.loads(out)["message"] == "budget must be nonnegative, got -5"


    @pytest.mark.parametrize("spec", ["1_1", "\uff13"])
    def test_group_spec_is_ascii_digits(self, capsys, write_graph, spec):
        code, out = run_cli(
            capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", spec, "--json"
        )
        assert code == 2
        assert json.loads(out)["message"] == f"modulus must be an integer, got {spec!r}"


@pytest.mark.parametrize("command, option", [("count", "--budget"), ("poly", "--d-max"),
                                             ("verify", "--max-order"), ("intflow", "--n-max")])
@pytest.mark.parametrize("value", ["1_000", "\uff12", " 2", "2.0"])
def test_integer_options_are_ascii_digits(capsys, write_graph, command, option, value):
    extra = ["--group", "3"] if command == "count" else []
    assert cli.main([command, "--graph", write_graph(NEG_LOOP), *extra, option, value]) == 2
    assert capsys.readouterr().err == f"error: {option[2:]} must be an integer, got {value!r}\n"


def test_bad_sign_in_a_graph_file_names_the_file_and_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 2\nedge 0 1 x\n")
    message = f"{path}: line 2: sign must be '+' or '-', got 'x'"
    assert cli.main(["count", "--graph", str(path), "--group", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    code, out = run_cli(capsys, "count", "--graph", str(path), "--group", "2", "--json")
    assert code == 2
    assert json.loads(out)["message"] == message


@pytest.mark.parametrize("data", [b"vertices 1\r\nedge 0 0 -\r\n", b"vertices 1\redge 0 0 -\r",
                                  "# caf\u2028 note\nvertices 1\nedge 0 0 -\n".encode()],
                         ids=["CRLF", "CR", "LS-in-a-comment"])
def test_a_graph_file_breaks_lines_only_where_the_file_does(capsys, tmp_path, data):
    path = tmp_path / "loop.txt"
    path.write_bytes(data)
    code, out = run_cli(capsys, "count", "--graph", str(path), "--group", "2,2", "--json")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 3


# main loads --graph before the handler checks any option, so of two faults
# the unreadable file is the one reported, with the options as parsed
@pytest.mark.parametrize("argv, inputs", [
    (["poly", "--d-max", "-1"], {"d_max": -1}),
    (["verify", "--max-order", "0"], {"budget": 10**8, "max_order": 0}),
    (["intflow", "--n-max", "0", "--fit"], {"budget": 10**8, "fit": True, "n_max": 0}),
], ids=["poly", "verify", "intflow"])
def test_an_unreadable_graph_is_reported_before_other_faults(capsys, tmp_path, argv, inputs):
    missing = str(tmp_path / "missing.txt")
    message = f"cannot read graph file {missing!r}: "
    assert cli.main([*argv, "--graph", missing]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.startswith(f"error: {message}")) == ("", True)
    code, out = run_cli(capsys, *argv, "--graph", missing, "--json")
    assert code == 2
    report = json.loads(out)
    assert report["message"].startswith(message)
    assert (report["inputs"], report["results"]) == ({"graph": missing, **inputs}, {})


class TestOptions:
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--graph", "G", "--budget", "1_000"], "budget must be an integer, got '1_000'"),
        (["count", "--graph", "G", "--group", "3", "--grup", "3"], "count has no option '--grup'"),
        (["count", "--group", "3"], "count needs --graph"),
        (["tally", "--graph", "G"],
         "command must be one of count, poly, verify, equiv, switch, intflow, got 'tally'"),
        (["count", "--graph", "G", "--group"], "--group needs a value"),
    ], ids=["underscored-integer", "unknown-option", "missing-graph", "unknown-command",
            "missing-value"])
    def test_refusals_under_json_are_json_reports(self, capsys, write_graph, argv, message):
        path = write_graph(NEG_LOOP)
        code, out = run_cli(capsys, *[path if a == "G" else a for a in argv], "--json")
        assert code == 2
        report = json.loads(out)
        assert (report["command"], report["status"], report["message"]) == (argv[0], "error", message)

    def test_a_flag_takes_no_value(self, capsys, write_graph):
        argv = ["count", "--graph", write_graph(NEG_LOOP), "--group", "2", "--json=yes"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --json takes no value\n"

    def test_equals_form_and_last_repeat_wins(self, capsys, write_graph):
        code, out = run_cli(capsys, "count", f"--graph={write_graph(NEG_LOOP)}", "--group=5",
                            "--group", "2,2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["group"] == "2,2"
        assert report["results"]["count"] == 3

    def test_inputs_echo_the_defaults_and_leave_out_json(self, capsys, write_graph):
        path = write_graph(BARBELL)
        code, out = run_cli(capsys, "intflow", "--graph", path, "--json")
        assert code == 0
        assert json.loads(out)["inputs"] == {"budget": 10**8, "fit": False, "graph": path, "n_max": 8}

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["count", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: signedflow COMMAND")
        assert "  count    --graph GRAPH [--json] [--budget 100000000] --group GROUP\n" in out

    def test_run_reads_sys_argv(self, capsys, write_graph, monkeypatch, exit_raises):
        argv = ["signedflow", "count", "--graph", write_graph(NEG_LOOP), "--group", "2,2"]
        monkeypatch.setattr("sys.argv", argv)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert "nowhere-zero flows: 3" in capsys.readouterr().out

    def test_run_in_a_child_process(self, capsys, tmp_path, write_graph):
        # run() flushes the streams itself and ends with os._exit: the
        # report, larger than a pipe buffer, still arrives whole, and so do
        # every exit code and a refusal's error line
        def child(*argv):
            src = Path(cli.__file__).resolve().parent.parent
            return subprocess.run([sys.executable, "-m", "signedflow.cli", *argv],
                                  capture_output=True, text=True, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=str(src)))

        loops = write_graph(g(1, *[(0, 0, 1)] * 2000))
        proc = child("poly", "--graph", loops, "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout) > 2**16
        assert json.loads(proc.stdout)["results"]["polynomials"][0]["coeffs"][-1] == 1
        bad = tmp_path / "bad.txt"
        bad.write_text("vertices 1\nedge 0 0 *\n")
        assert child("poly", "--graph", str(bad), "--json").returncode == 2
        refused = ["count", "--graph", write_graph(TRIANGLE), "--group", "9", "--budget", "5"]
        proc = child(*refused, "--json")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["status"] == "error"
        # without --json the refusal is one line on stderr, as main writes it in process
        assert cli.main(refused) == 3
        expected = capsys.readouterr()
        assert expected.err.startswith("error: ") and expected.err.count("\n") == 1
        proc = child(*refused)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", expected.err)


class TestPoly:
    def test_negative_loop_table(self, capsys, write_graph):
        code, out = run_cli(capsys, "poly", "--graph", write_graph(NEG_LOOP), "--d-max", "2")
        assert code == 0
        assert "f_0(n) = 0" in out
        assert "f_1(n) = 1" in out
        assert "f_2(n) = 3" in out

    def test_positive_loop_both_renderings(self, capsys, write_graph):
        code, out = run_cli(capsys, "poly", "--graph", write_graph(POS_LOOP), "--d-max", "1")
        assert code == 0
        assert "f_0(n) = n - 1    coeffs [-1, 1]" in out
        assert "f_1(n) = 2*n - 1    coeffs [-1, 2]" in out

    def test_json_includes_fingerprint(self, capsys, write_graph):
        code, out = run_cli(capsys, "poly", "--graph", write_graph(POS_LOOP), "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["graph_fingerprint"]) == 64
        assert report["results"]["polynomials"][0]["coeffs"] == [-1, 1]

    def test_json_builds_no_human_lines(self, capsys, write_graph, monkeypatch):
        # a human line writes the coefficients out with repr; --json never
        # builds one, so a coefficient list that cannot be shown is not seen
        class Unshown(list):
            def __repr__(self):
                raise RuntimeError("human line built")

        poly_json = cli._poly_json

        def unshown(p):
            entry = poly_json(p)
            return {**entry, "coeffs": Unshown(entry["coeffs"])}

        argv = ("poly", "--graph", write_graph(POS_LOOP), "--d-max", "2")
        expected = run_cli(capsys, *argv, "--json")
        assert expected[0] == 0
        monkeypatch.setattr(cli, "_poly_json", unshown)
        assert run_cli(capsys, *argv, "--json") == expected
        assert cli.main(list(argv)) == 4  # the patch takes effect
        assert capsys.readouterr().err == "error: internal error: RuntimeError: human line built\n"

    def test_fingerprint_tracks_the_graph(self, capsys, write_graph):
        def fingerprint(graph):
            code, out = run_cli(capsys, "poly", "--graph", write_graph(graph), "--d-max", "1", "--json")
            assert code == 0
            return json.loads(out)["results"]["graph_fingerprint"]

        assert fingerprint(POS_LOOP) != fingerprint(NEG_LOOP)
        assert fingerprint(POS_LOOP) == fingerprint(POS_LOOP) == graph_fingerprint(POS_LOOP)

    # Deep enough to exhaust Python's recursion limit in a recursive
    # deletion-contraction; the frontier pass needs no recursion.
    def poly_family(self, capsys, write_graph, graph, d_max):
        code, out = run_cli(capsys, "poly", "--graph", write_graph(graph), "--d-max", str(d_max), "--json")
        assert code == 0
        return [Poly(entry["coeffs"]) for entry in json.loads(out)["results"]["polynomials"]]

    def test_twelve_hundred_parallel_positive_edges(self, capsys, write_graph):
        graph = SignedGraph(2, ((0, 1, 1),) * 1200)
        assert self.poly_family(capsys, write_graph, graph, 0) == [nonzero_sum_count(1200)]

    def test_twelve_hundred_parallel_edges_of_alternating_sign(self, capsys, write_graph):
        # by the subset expansion, f_0 = (1 + ((1 - n)^600 - 1) / n)^2, and
        # 1 + ((1 - n)^600 - 1) / n is the count of x_1 + ... + x_600 = 0
        graph = SignedGraph(2, [(0, 1, (-1) ** i) for i in range(1200)])
        assert self.poly_family(capsys, write_graph, graph, 0) == [nonzero_sum_count(600) ** 2]

    def test_the_family_bound_admits_large_reports(self, capsys, write_graph):
        # the all-positive triangle has f_d = 2^d n - 1; K9 to d = 100 is a
        # report of 1.3 MB
        assert self.poly_family(capsys, write_graph, TRIANGLE, 1000) == [
            Poly((-1, 2**d)) for d in range(1001)]
        k9 = SignedGraph(9, [(u, v, 1) for u in range(9) for v in range(u + 1, 9)])
        family = self.poly_family(capsys, write_graph, k9, 100)
        assert len(family) == 101 and family[100] == flow_polynomial(k9, 100)

    def test_three_thousand_vertex_cycle_with_one_negative_edge(self, capsys, write_graph):
        # an unbalanced cycle: all its edges take one value x with 2x = 0
        graph = SignedGraph(3000, [(i, (i + 1) % 3000, -1 if i == 0 else 1) for i in range(3000)])
        assert self.poly_family(capsys, write_graph, graph, 2) == [Poly(), Poly((1,)), Poly((3,))]


@pytest.mark.parametrize("command, rows", [(["verify", "--max-order", "8"], "groups"),
                                           (["intflow", "--n-max", "11"], "counts")])
def test_the_oracle_plans_the_graph_once_per_command(capsys, write_graph, monkeypatch, command, rows):
    planned = []
    for name in ("frontier_walk", "_forest_switched"):
        def counting(*args, name=name, planner=getattr(cli.oracle, name)):
            planned.append(name)
            return planner(*args)

        monkeypatch.setattr(cli.oracle, name, counting)
    # no plan kept from an earlier test (a module without one keeps none)
    monkeypatch.setattr(cli.oracle, "_last_plan", ((None, None), None), raising=False)
    k4 = k4_with_signs([1, -1, 1, 1, -1, 1])
    code, out = run_cli(capsys, *command, "--graph", write_graph(k4), "--json")
    assert code == 0
    assert len(json.loads(out)["results"][rows]) == 11
    assert planned == ["frontier_walk", "_forest_switched"]


class TestVerify:
    def test_isolated_vertices_are_ignored(self, capsys, write_graph):
        digon = g(2, (0, 1, 1), (0, 1, -1))
        padded = SignedGraph.from_edges(10**6, [(0, 999_999, 1), (0, 999_999, -1)])
        reports = []
        for graph in (digon, padded):
            path = write_graph(graph)
            runs = [("count", "--group", "4"), ("count", "--group", "3"), ("verify", "--max-order", "3")]
            results = []
            for argv in runs:
                code, out = run_cli(capsys, *argv, "--graph", path, "--json")
                assert code == 0
                results.append(json.loads(out)["results"])
            reports.append(results)
        assert [r["count"] for r in reports[1][:2]] == [r["count"] for r in reports[0][:2]] == [1, 0]
        assert reports[1][2] == reports[0][2]
        assert reports[1][2]["all_pass"]

    def test_all_pass_on_a_disconnected_graph(self, capsys, write_graph):
        # a barbell, a negative triangle and two isolated vertices, edges interleaved
        graph = g(7, (3, 4, -1), (0, 0, -1), (4, 5, 1), (1, 1, -1), (3, 5, 1), (0, 1, 1))
        code, out = run_cli(capsys, "verify", "--graph", write_graph(graph), "--max-order", "9", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_pass"] and len(results["pairs"]) == 1
        assert any(row["oracle"] for row in results["groups"])

    def test_all_pass_on_sound_engine(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "verify", "--graph", write_graph(BARBELL), "--max-order", "9"
        )
        assert code == 0
        assert "all PASS" in out
        assert "pair Z9 / Z3 x Z3" in out

    def test_each_group_is_counted_once(self, capsys, write_graph, monkeypatch):
        counted = []
        count = cli.oracle.count_group_flows

        def counting(graph, gamma, **kwargs):
            counted.append(gamma)
            return count(graph, gamma, **kwargs)

        monkeypatch.setattr(cli.oracle, "count_group_flows", counting)
        code, out = run_cli(
            capsys, "verify", "--graph", write_graph(BARBELL), "--max-order", "9"
        )
        assert code == 0
        assert "pair Z9 / Z3 x Z3" in out
        assert sorted(counted, key=lambda gamma: gamma.moduli) == sorted(
            abelian_groups_up_to(9), key=lambda gamma: gamma.moduli
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_a_refusal_after_a_kept_plan_is_a_fresh_process_refusal(self, capsys, write_graph, mode):
        # the six groups up to Z3 x Z2 fit the budget; Z7 does not
        path = write_graph(k4_with_signs([1, -1, 1, 1, -1, 1]))
        argv = ["verify", "--graph", path, "--max-order", "8", "--budget", "1000", *mode]
        assert cli.main(["count", "--graph", path, "--group", "7"]) == 0  # plans the K4
        capsys.readouterr()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        src = Path(cli.__file__).resolve().parent.parent
        child = subprocess.run([sys.executable, "-m", "signedflow.cli", *argv], capture_output=True,
                               text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (code, out, err) == (child.returncode, child.stdout, child.stderr)
        assert code == 3
        assert "Z7: up to " in out + err

    def test_groups_are_listed_one_order_at_a_time(self, write_graph):
        # every group up to 10^12 would not fit in memory; the refusal at
        # Z16 x Z7 comes before any group past it is listed
        path = write_graph(g(2, (0, 1, 1)))
        src = Path(cli.__file__).resolve().parent.parent
        runs = [subprocess.run([sys.executable, "-m", "signedflow.cli", "verify", "--graph", path,
                                "--max-order", max_order, "--budget", "1000"], capture_output=True,
                               text=True, timeout=30, env=dict(os.environ, PYTHONPATH=str(src)))
                for max_order in ("200", "1000000000000")]
        assert [(run.returncode, run.stdout, run.stderr) for run in runs] == [
            (3, runs[0].stdout, runs[0].stderr)] * 2
        assert runs[0].stderr.startswith("error: Z16 x Z7: up to ")

    def test_mismatch_exits_one(self, capsys, write_graph, monkeypatch):
        monkeypatch.setattr(cli.oracle, "count_group_flows", lambda *a, **k: 987654)
        code, out = run_cli(
            capsys, "verify", "--graph", write_graph(NEG_LOOP), "--max-order", "4"
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_report_shape(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "verify", "--graph", write_graph(NEG_LOOP), "--max-order", "6", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_pass"] is True
        assert len(report["results"]["groups"]) == 7

    def test_budget_refusal_names_its_group_and_keeps_the_counts_made(self, capsys, write_graph):
        # the 13 groups up to Z3 x Z3 fit the budget; Z5 x Z2 does not
        k4 = k4_with_signs([1, -1, 1, 1, -1, 1])
        argv = ["verify", "--graph", write_graph(k4), "--max-order", "16", "--budget", "3000"]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 3
        report = json.loads(out)
        assert report["message"].startswith("Z5 x Z2: ")
        groups = report["results"].pop("groups")
        assert report["results"] == {}
        assert [row["group"]["label"] for row in groups] == [
            "Z1", "Z2", "Z3", "Z4", "Z2 x Z2", "Z5", "Z3 x Z2", "Z7", "Z8", "Z4 x Z2",
            "Z2 x Z2 x Z2", "Z9", "Z3 x Z3"]
        assert all(row["pass"] for row in groups)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "Z3 x Z3 (order 9, d=0, n=9): oracle=56 poly=56 PASS"
        assert len(captured.out.splitlines()) == 13
        assert captured.err == f"error: {report['message']}\n"


class TestInternalError:
    def test_unexpected_error_exits_four(self, capsys, write_graph, monkeypatch):
        def crash(g, args, results, human):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._COMMANDS, "count", (crash, cli._COMMANDS["count"][1]))
        path = write_graph(NEG_LOOP)
        assert cli.main(["count", "--graph", path, "--group", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: RecursionError: maximum recursion depth exceeded\n"
        )
        code, out = run_cli(capsys, "count", "--graph", path, "--group", "2", "--json")
        assert code == 4
        report = json.loads(out)
        assert report["status"] == "error"
        assert report["message"].startswith("internal error: RecursionError")

    def test_a_fault_while_reporting_a_fault_exits_four(self, capsys, write_graph, monkeypatch,
                                                        exit_raises):
        # main reports a fault by formatting it; if that fails too, run()
        # still exits 4 with one line, never a traceback and exit 1
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.oracle, "count_group_flows", out_of_memory)
        monkeypatch.setattr(cli, "_internal_error", out_of_memory)
        monkeypatch.setattr("sys.argv", ["signedflow", "count", "--graph", write_graph(NEG_LOOP),
                                         "--group", "2"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: internal error: MemoryError\n")

    @pytest.mark.parametrize("value, kind", [({1, 2}, "set"), (1.5, "float"),
                                             (Fraction(1, 2), "Fraction")])
    def test_a_report_that_cannot_be_written_exits_four(self, capsys, write_graph, monkeypatch,
                                                        value, kind):
        def stand_in(g, args, results, human):
            results["count"] = value
            human.append("nowhere-zero flows: ?")
            return 0

        monkeypatch.setitem(cli._COMMANDS, "count", (stand_in, cli._COMMANDS["count"][1]))
        argv = ["count", "--graph", write_graph(NEG_LOOP), "--group", "2"]
        assert cli.main([*argv, "--json"]) == 4
        captured = capsys.readouterr()
        # nothing of the report is printed, and the error is one line
        assert captured.out == ""
        assert captured.err == (
            f"error: internal error: TypeError: Object of type {kind} is not JSON serializable\n"
        )
        # human mode does not print results, so it has nothing to refuse
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "nowhere-zero flows: ?\n"


class TestInterrupt:
    @pytest.mark.parametrize("argv, counter, rows", [
        (["verify", "--max-order", "6"], "count_group_flows", "groups"),
        (["intflow", "--n-max", "6"], "count_integer_nflows", "counts"),
    ], ids=["verify", "intflow"])
    def test_ctrl_c_keeps_the_counts_made_and_exits_130(self, capsys, write_graph, monkeypatch,
                                                        exit_raises, argv, counter, rows):
        argv = [*argv, "--graph", write_graph(NEG_LOOP)]
        assert cli.main(argv) == 0
        made = capsys.readouterr().out.splitlines()[:2]
        counted = getattr(cli.oracle, counter)
        calls = []

        def interrupted_at_the_third(*args, **kwargs):
            calls.append(args)
            if len(calls) % 3 == 0:
                raise KeyboardInterrupt
            return counted(*args, **kwargs)

        def code_of(call, *args):
            # an escaping KeyboardInterrupt would end the whole test session
            try:
                return call(*args)
            except KeyboardInterrupt:
                pytest.fail("KeyboardInterrupt escaped the CLI")

        monkeypatch.setattr(cli.oracle, counter, interrupted_at_the_third)
        assert code_of(cli.main, argv) == 130
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == (made, "error: interrupted\n")
        code, out = code_of(run_cli, capsys, *argv, "--json")
        report = json.loads(out)
        assert (code, report["status"], report["message"]) == (130, "error", "interrupted")
        assert list(report["results"]) == [rows] and len(report["results"][rows]) == 2
        monkeypatch.setattr("sys.argv", ["signedflow", *argv])
        with pytest.raises(SystemExit) as exc:
            code_of(cli.run)
        assert exc.value.code == 130
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == (made, "error: interrupted\n")


# What a report may hold: dicts with text keys, lists, tuples, ints (also
# past the 4,300 digits Python prints by default), text over all of Unicode
# (quotes, backslashes, control characters, lone surrogates), bools and None.
_text = st.text(st.characters(exclude_categories=()))
_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _text
    | st.builds(lambda a, k: a * 10**k + a, st.integers(), st.integers(4290, 4400)),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_text, inner),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def any_int_digits():
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 has no limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as main does
    yield
    sys.set_int_max_str_digits(saved)


class TestJsonText:
    # _json_text escapes text with _json's encode_basestring_ascii, as
    # json.dumps does; with _json blocked it falls back to json.encoder's
    # pure-Python one
    @pytest.mark.parametrize("blocked", [(), ("_json",)])
    @given(value=_report_values)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, any_int_digits, blocked, value):
        expected = json.dumps(value, sort_keys=True, indent=2)
        with mock.patch.dict(sys.modules, dict.fromkeys(blocked)):
            assert cli._json_text(value) == expected

    @pytest.mark.parametrize("value", [1.0, float("nan"), Fraction(1, 3), {1}, b"x", {"a": [0, 2.5]}])
    def test_refuses_what_a_report_cannot_hold(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(value)

    @pytest.mark.parametrize("key", [1, None, ("a",)])
    def test_refuses_keys_other_than_text(self, key):
        with pytest.raises(TypeError, match="^keys must be str"):
            cli._json_text({key: 0})


class _Unwritable:
    """A stdout whose every write raises ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


class TestUnwritableReport:
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")])
    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_exits_four_with_one_error_line(self, capsys, write_graph, monkeypatch, error, as_json):
        path = write_graph(NEG_LOOP)
        monkeypatch.setattr("sys.stdout", _Unwritable(error))
        assert cli.main(["poly", "--graph", path, *as_json]) == 4
        assert capsys.readouterr().err == f"error: cannot write the report: {error}\n"

    def test_a_closed_pipe_gives_one_line_and_no_shutdown_error(self, write_graph):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "signedflow.cli", "count", "--graph", write_graph(NEG_LOOP),
             "--group", "2,2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr == "error: cannot write the report: [Errno 32] Broken pipe\n"

    def test_an_unwritable_stderr_too_still_exits_four(self, write_graph, monkeypatch):
        path = write_graph(NEG_LOOP)
        monkeypatch.setattr("sys.stdout", _Unwritable(BrokenPipeError(errno.EPIPE, "Broken pipe")))
        monkeypatch.setattr("sys.stderr", _Unwritable(BrokenPipeError(errno.EPIPE, "Broken pipe")))
        assert cli.main(["poly", "--graph", path]) == 4


class TestClosedStreams:
    """Python sets sys.stdout or sys.stderr to None when the process starts
    with that file descriptor closed (``>&-``, ``2>&-``).  A report that
    needs a closed stream exits 4, never 1, and says so on stderr if
    stderr is open."""

    def run(self, monkeypatch, graph, *argv, stdout=True, stderr=True):
        monkeypatch.setattr("sys.argv", ["signedflow", "count", "--graph", graph, *argv])
        if not stdout:
            monkeypatch.setattr("sys.stdout", None)
        if not stderr:
            monkeypatch.setattr("sys.stderr", None)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        return exc.value.code

    @pytest.mark.parametrize("argv", [["--group", "0"], ["--group", "3"], ["--group", "3", "--json"],
                                      ["--group", "0", "--json"]])
    def test_both_closed_exits_four(self, write_graph, monkeypatch, exit_raises, argv):
        assert self.run(monkeypatch, write_graph(NEG_LOOP), *argv, stdout=False, stderr=False) == 4

    @pytest.mark.parametrize("argv", [["--group", "3"], ["--group", "3", "--json"],
                                      ["--group", "0", "--json"]])
    def test_a_report_for_a_closed_stdout_is_refused_on_stderr(self, capsys, write_graph,
                                                               monkeypatch, exit_raises, argv):
        assert self.run(monkeypatch, write_graph(NEG_LOOP), *argv, stdout=False) == 4
        assert capsys.readouterr().err == "error: cannot write the report: stdout is closed\n"

    def test_an_error_line_needs_only_stderr(self, capsys, write_graph, monkeypatch, exit_raises):
        assert self.run(monkeypatch, write_graph(NEG_LOOP), "--group", "0", stdout=False) == 2
        assert capsys.readouterr().err == "error: modulus must be at least 1, got 0\n"

    def test_a_report_needs_only_stdout(self, capsys, write_graph, monkeypatch, exit_raises):
        assert self.run(monkeypatch, write_graph(NEG_LOOP), "--group", "2,2", stderr=False) == 0
        assert "nowhere-zero flows: 3\n" in capsys.readouterr().out

    def test_an_error_line_for_a_closed_stderr_exits_four(self, capsys, write_graph, monkeypatch,
                                                          exit_raises):
        assert self.run(monkeypatch, write_graph(NEG_LOOP), "--group", "0", stderr=False) == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("closed, code, err", [
        ((1, 2), 4, ""),
        ((1,), 4, "error: cannot write the report: stdout is closed\n"),
    ])
    def test_in_a_child_started_with_closed_descriptors(self, write_graph, closed, code, err):
        src = Path(cli.__file__).resolve().parent.parent
        argv = [sys.executable, "-m", "signedflow.cli", "count", "--graph", write_graph(NEG_LOOP),
                "--group", "3", "--json"]
        # the child closes the descriptors and then becomes the command
        start = f"import os, sys; [os.close(fd) for fd in {closed}]; os.execv(sys.executable, {argv})"
        proc = subprocess.run([sys.executable, "-c", start], stderr=subprocess.PIPE, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (proc.returncode, proc.stderr) == (code, err)


def spider(doubled: bool) -> SignedGraph:
    """65 legs 0 - i - (65 + i) on 131 vertices, all positive edges, or with
    each 0 - i a +/- pair and each i - (65 + i) a +/+ pair.  Its walk holds
    65 vertices open at once."""
    if not doubled:
        return g(131, *[(0, i, 1) for i in range(1, 66)], *[(i, 65 + i, 1) for i in range(1, 66)])
    return g(131, *[(0, i, s) for i in range(1, 66) for s in (1, -1)],
             *[(i, 65 + i, 1) for i in range(1, 66) for _ in range(2)])


class TestSlotLimit:
    # the engine's states hold at most 64 open vertices
    def test_a_spider_of_bridges_has_no_flow(self, capsys, write_graph):
        code, out = run_cli(capsys, "poly", "--graph", write_graph(spider(False)), "--json")
        assert code == 0
        assert [p["coeffs"] for p in json.loads(out)["results"]["polynomials"]] == [[], [], []]

    def test_a_spider_with_every_edge_doubled_is_refused_at_once(self, capsys, write_graph):
        path = write_graph(spider(True))
        start = time.perf_counter()
        code, out = run_cli(capsys, "poly", "--graph", path, "--json")
        assert time.perf_counter() - start < 1
        report = json.loads(out)
        assert (code, report["status"], report["results"]) == (3, "error", {})
        assert report["message"] == ("edge 128 (0 65 +) opens slot 65 of 65, and the engine's "
                                     "states hold at most 64 open vertices")


class TestEquivAndSwitch:
    def test_graph_is_equivalent_to_itself(self, capsys, write_graph):
        path = write_graph(TRIANGLE)
        code, out = run_cli(capsys, "equiv", "--graph", path, "--other", path)
        assert code == 0
        assert "equivalent: yes" in out

    def test_switched_graph_is_equivalent(self, capsys, write_graph):
        graph = g(3, (0, 1, -1), (1, 2, 1), (0, 2, 1))
        code, switched_text = run_cli(
            capsys, "switch", "--graph", write_graph(graph), "--vertices", "0"
        )
        assert code == 0
        switched = parse_graph_text(switched_text)
        assert signatures_equivalent(graph, switched)
        assert switched.edges[0].sign == 1

    def test_loop_sign_disagreement_is_not_equivalent(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "equiv", "--graph", write_graph(POS_LOOP), "--other", write_graph(NEG_LOOP)
        )
        assert code == 0
        assert "equivalent: no" in out

    def test_underlying_mismatch_exits_two(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "equiv", "--graph", write_graph(POS_LOOP), "--other", write_graph(TRIANGLE)
        )
        assert code == 2

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_endpoints_in_either_order_are_the_same_edge(self, capsys, tmp_path, sign):
        one, other = tmp_path / "one.txt", tmp_path / "other.txt"
        one.write_text("vertices 2\nedge 0 1 +\n")
        other.write_text(f"vertices 2\nedge 1 0 {sign}\n")
        code, out = run_cli(capsys, "equiv", "--graph", str(one), "--other", str(other))
        assert (code, out) == (0, "equivalent: yes\n")

    def test_a_file_that_is_not_utf8_is_named(self, capsys, tmp_path, write_graph):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes("vertices 1\n".encode("utf-16"))  # starts with the BOM ff fe
        assert cli.main(["equiv", "--graph", write_graph(NEG_LOOP), "--other", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read graph file {str(bad)!r}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )

    def test_switch_round_trip_through_cli(self, capsys, write_graph, tmp_path):
        graph = g(3, (0, 1, -1), (1, 2, -1), (0, 2, 1))
        path = write_graph(graph)
        code, text = run_cli(capsys, "switch", "--graph", path, "--vertices", "0,2")
        assert code == 0
        other = tmp_path / "switched.txt"
        other.write_text(text)
        code, out = run_cli(capsys, "equiv", "--graph", path, "--other", str(other))
        assert code == 0
        assert "equivalent: yes" in out

    def test_vertex_list_is_ascii_digits(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "switch", "--graph", write_graph(g(11)), "--vertices", "0,1_0", "--json"
        )
        assert code == 2
        assert json.loads(out)["message"] == "vertex must be an integer, got '1_0'"

    def test_vertex_out_of_range_names_the_range(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "switch", "--graph", write_graph(TRIANGLE), "--vertices", "3", "--json"
        )
        assert code == 2
        assert json.loads(out)["message"] == "vertex must be in 0..2, got 3"

    def test_empty_vertex_list_is_identity(self, capsys, write_graph):
        code, text = run_cli(
            capsys, "switch", "--graph", write_graph(TRIANGLE), "--vertices", ""
        )
        assert code == 0
        assert parse_graph_text(text) == TRIANGLE


HUGE_DIGON = "vertices 1000000000000\nedge 0 999999999999 +\nedge 0 999999999999 -\n"


def capped_child(*argv) -> subprocess.CompletedProcess:
    """The command run in a child under an 800 MB address-space limit, so
    that work that grows past it fails at once instead of filling the
    machine's memory."""
    resource = pytest.importorskip("resource")
    limit = 800 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(cli.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "signedflow.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


@pytest.mark.parametrize("argv", [
    ["equiv", "--other", "{graph}"],
    ["count", "--group", "3"],
    ["poly"],
    ["verify", "--max-order", "3"],
    ["switch", "--vertices", "0"],
    ["intflow", "--n-max", "6"],
])
def test_huge_vertex_count_costs_no_memory_per_vertex(tmp_path, argv):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_DIGON)
    argv = [a.format(graph=path) for a in argv]
    proc = capped_child(*argv, "--graph", str(path), "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["status"] == "ok"


def test_a_d_max_too_large_for_memory_is_refused_before_any_polynomial(write_graph):
    # the coefficients grow as d_max^2 bits: at 10^6 on the triangle the
    # family ran out of any address space (under the limit, exit 4 after a
    # second); the bound refuses it from F's terms alone
    proc = capped_child("poly", "--graph", write_graph(TRIANGLE), "--d-max", "1000000", "--json")
    assert (proc.returncode, proc.stderr) == (3, "")
    report = json.loads(proc.stdout)
    assert (report["status"], report["results"]) == ("error", {})
    assert report["message"] == (
        "d-max 1000000: f_0..f_1000000 may take up to 502052502052 bits of coefficients, "
        "more than the 67108864 a family may take")


def test_only_the_walk_drops_edgeless_vertices(capsys, write_graph, monkeypatch):
    # every module that binds the name is patched, so a second drop anywhere
    # in the package is counted, with the function that made it
    import signedflow.engine  # noqa: F401  (its names are bound before they are patched)
    from signedflow import graph as graph_module

    original = graph_module.drop_edgeless_vertices
    callers = []

    def counting(g):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "signedflow" and vars(module).get("drop_edgeless_vertices") is original:
            monkeypatch.setattr(module, "drop_edgeless_vertices", counting)
    monkeypatch.setattr(cli.oracle, "_last_plan", ((None, None), None))
    padded = write_graph(g(7, (1, 4, 1), (4, 5, -1), (1, 5, 1), (5, 5, -1)))
    for argv, expected in ((["poly"], ["frontier_walk"]), (["count", "--group", "3"], ["frontier_walk"]),
                           (["equiv", "--other", padded], [])):
        callers.clear()
        code, _ = run_cli(capsys, *argv, "--graph", padded)
        assert (code, callers) == (0, expected), argv


class TestIntflow:
    def test_positive_loop_table(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "intflow", "--graph", write_graph(POS_LOOP), "--n-max", "6"
        )
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("n=")] == [
            "n=1: 0", "n=2: 2", "n=3: 4", "n=4: 6", "n=5: 8", "n=6: 10",
        ]

    def test_fit_flag_appends_verdict(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "intflow", "--graph", write_graph(BARBELL), "--n-max", "10", "--fit"
        )
        assert code == 0
        assert "fit validated: yes" in out
        assert "fit even n: n - 2" in out
        assert "fit odd n:  n - 1" in out

    def test_rational_fit_that_misses_its_held_out_samples(self, capsys, write_graph):
        # one vertex with five negative loops and one positive loop
        graph = SignedGraph(1, [(0, 0, -1)] * 5 + [(0, 0, 1)])
        argv = ["intflow", "--graph", write_graph(graph), "--n-max", "9", "--fit"]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        fit = json.loads(out)["results"]["fit"]
        assert fit["p_even"]["coeffs"] == [40700, -31425, "11075/2"]
        assert fit["p_odd"]["coeffs"] == ["-41245/2", "65345/2", "-27595/2", "3495/2"]
        assert fit["validated"] is False
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "fit validated: no" in out.splitlines()

    def test_underdetermined_fit_is_an_input_error(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "intflow", "--graph", write_graph(POS_LOOP), "--n-max", "4", "--fit"
        )
        assert code == 2

    def test_a_short_fit_is_refused_before_any_count(self, capsys, write_graph, monkeypatch):
        # a budget of 0 refuses every count, so exit 2 shows that none was tried
        def no_count(*args, **kwargs):
            raise AssertionError("counted")

        argv = ["intflow", "--graph", write_graph(TRIANGLE), "--n-max", "5", "--fit"]
        assert cli.main([*argv, "--budget", "0"]) == 2
        assert capsys.readouterr() == ("", "error: n-max with --fit must be at least 6, got 5\n")
        monkeypatch.setattr(cli.oracle, "count_integer_nflows", no_count)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["results"] == {}

    def test_budget_exhaustion_exits_three(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "intflow", "--graph", write_graph(TRIANGLE), "--n-max", "50", "--budget", "100"
        )
        assert code == 3

    def test_budget_refusal_names_its_n(self, capsys, write_graph):
        # n = 30 fits the budget; the oracle's own message stays as it is after the prefix
        message = ("n = 31: up to 1030 transfer-matrix steps by edge 1 (0 1 -) "
                   "with 2 vertices open exceed budget 1000")
        argv = ["intflow", "--graph", write_graph(DIGON_PM), "--n-max", "100000", "--budget", "1000"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out)["message"] == message


    def test_budget_refusal_keeps_the_counts_made(self, capsys, write_graph):
        argv = ["intflow", "--graph", write_graph(DIGON_PM), "--n-max", "100000", "--budget", "1000"]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 3
        report = json.loads(out)
        assert report["message"].startswith("n = 31: ")
        assert report["results"] == {"counts": [
            {"n": n, "count": count_integer_nflows(DIGON_PM, n)} for n in range(1, 31)
        ]}
        # and human mode prints the same counts before the error
        assert cli.main(argv) == 3
        assert capsys.readouterr().out.splitlines() == [
            f"n={row['n']}: {row['count']}" for row in report["results"]["counts"]]


class TestJsonDeterminism:
    def test_identical_runs_produce_identical_bytes(self, capsys, write_graph):
        path = write_graph(BARBELL)
        argv = ["verify", "--graph", path, "--max-order", "8", "--json"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        json.loads(first)

    def test_error_reports_are_json_too(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", "bad", "--json"
        )
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "error"
        assert "message" in report
