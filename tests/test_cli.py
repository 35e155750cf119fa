import json

import pytest

from signedflow import (
    SignedGraph,
    abelian_groups_up_to,
    cli,
    nonzero_sum_count,
    parse_graph_text,
    signatures_equivalent,
)
from signedflow.graph import graph_to_text

from corpusgen import BARBELL, NEG_LOOP, POS_LOOP, TRIANGLE, g


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


class TestCount:
    def test_negative_loop_over_klein_four(self, capsys, write_graph):
        code, out = run_cli(capsys, "count", "--graph", write_graph(NEG_LOOP), "--group", "2,2")
        assert code == 0
        assert "nowhere-zero flows: 3" in out

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

    def test_negative_budget_is_an_input_error(self, capsys, write_graph):
        code, out = run_cli(
            capsys, "count", "--graph", write_graph(TRIANGLE), "--group", "3", "--budget", "-5",
            "--json",
        )
        assert code == 2
        assert json.loads(out)["message"] == "budget must be nonnegative, got -5"


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


class TestInternalError:
    def test_unexpected_error_exits_four(self, capsys, write_graph, monkeypatch):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._HANDLERS, "count", crash)
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

    def test_empty_vertex_list_is_identity(self, capsys, write_graph):
        code, text = run_cli(
            capsys, "switch", "--graph", write_graph(TRIANGLE), "--vertices", ""
        )
        assert code == 0
        assert parse_graph_text(text) == TRIANGLE


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

    def test_underdetermined_fit_is_an_input_error(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "intflow", "--graph", write_graph(POS_LOOP), "--n-max", "4", "--fit"
        )
        assert code == 2

    def test_budget_exhaustion_exits_three(self, capsys, write_graph):
        code, _ = run_cli(
            capsys, "intflow", "--graph", write_graph(TRIANGLE), "--n-max", "50", "--budget", "100"
        )
        assert code == 3


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
