import io
from pathlib import Path

import pytest

from rdnum import (
    Budget,
    RdError,
    construct_ng_sharp_graph,
    cycle_graph,
    encode_graph6,
    load_graph6_stream,
    petersen_graph,
    rd_exact,
    read_coloring,
    read_edge_list,
)
from rdnum.cli import main
from rdnum.survey import ENUMERATION_MAX_ORDER, HARNESS_RULE_NAMES

import test_graphs

PETERSEN = encode_graph6(petersen_graph())
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_bounds_only(self, capsys):
        code, out, _ = run(capsys, "analyze", PETERSEN)
        assert code == 0
        assert "n = 10" in out and "m = 15" in out
        assert "lambda_plus = 3" in out
        assert "rd_lower = 3" in out and "rd_upper = 4" in out

    def test_exact_tree(self, capsys):
        code, out, _ = run(capsys, "analyze", "Ch", "--exact")
        assert code == 0
        assert "rd = 1 (rule: tree)" in out

    def test_exact_search_with_witness(self, capsys, tmp_path):
        prefix = str(tmp_path / "w")
        code, out, _ = run(
            capsys, "analyze", PETERSEN, "--exact", "--witness", prefix
        )
        assert code == 0
        assert "rd = 4 (search" in out
        coloring = read_coloring((tmp_path / "w.coloring").read_text())
        assert coloring.graph.n == 10
        certs = (tmp_path / "w.certificates").read_text().splitlines()
        assert len(certs) == 45

    def test_witness_runs_the_exact_value(self, capsys, tmp_path):
        prefix = str(tmp_path / "w")
        code, out, _ = run(capsys, "analyze", "C~", "--witness", prefix)
        assert code == 0
        assert "rd = 3 (rule: two_universal_vertices)" in out
        assert read_coloring((tmp_path / "w.coloring").read_text()).graph.n == 4
        certs = (tmp_path / "w.certificates").read_text().splitlines()
        assert len(certs) == 6

    def test_bounds_that_meet_give_the_value(self, capsys):
        code, out, _ = run(capsys, "analyze", "C~")
        assert code == 0 and out.endswith("rd_upper = 3\nrd = 3\n")

    def test_witness_spends_the_command_budget(self, capsys, tmp_path):
        # the value of Petersen takes exactly this budget; its witness is
        # then built by the generic construction, which needs more
        budget = Budget()
        rd_exact(petersen_graph(), budget)
        prefix = str(tmp_path / "w")
        code, out, err = run(
            capsys, "analyze", PETERSEN, "--exact", "--budget", str(budget.spent),
            "--witness", prefix,
        )
        assert code == 3 and "budget" in err
        assert "rd = 4 (search" in out
        assert not (tmp_path / "w.coloring").exists()

    def test_edge_list_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("4 3\n0 1\n1 2\n2 3\n"))
        code, out, _ = run(capsys, "analyze", "-", "--exact")
        assert code == 0 and "rd = 1" in out

    def test_disconnected_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "C?")
        assert code == 2
        assert "connected" in (out + err)

    def test_malformed_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "~zz")
        assert code == 2 and "error:" in err

    def test_indented_header_is_skipped_as_by_survey(self, capsys, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text(f"  >>graph6<<\n{PETERSEN}\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0 and "n = 10" in out
        code, out, _ = run(capsys, "survey", "--in", str(path),
                           "--rules", "lemma_chain")
        assert code == 0 and "SURVEY graphs=1" in out

    def test_graph_on_the_header_line_is_read(self, capsys, tmp_path):
        # nauty writes its header with no line end before the first graph
        code, out, _ = run(capsys, "analyze", f">>graph6<<{PETERSEN}")
        assert code == 0 and "n = 10" in out
        path = tmp_path / "one.g6"
        path.write_text(f">>graph6<<{PETERSEN}\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0 and "n = 10" in out

    def test_edge_list_after_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("\n\n4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "analyze", str(path), "--exact")
        assert code == 0 and "rd = 1" in out
        path.write_text("\n4 3\n0 1\n1 2\n2 2\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "") and "line 5: self-loop at vertex 2" in err

    @pytest.mark.parametrize("text", ["", "\n  \n", ">>graph6<<\n\n"])
    def test_no_graph_rejected(self, capsys, text):
        code, out, err = run(capsys, "analyze", text)
        assert (code, out, err) == (2, "", "error: no graph in input\n")

    def test_several_graphs_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", f"Ch\n{PETERSEN}\n")
        assert (code, out) == (2, "") and "input holds several graphs" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "analyze", PETERSEN, "--exact", "--budget", "10"
        )
        assert code == 3
        assert "budget" in err

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RD_BUDGET", "10")
        code, _, _ = run(capsys, "analyze", PETERSEN, "--exact")
        assert code == 3

    def test_size_cap_is_parameter_error(self, capsys):
        code, _, err = run(
            capsys, "analyze", PETERSEN, "--exact", "--max-edges", "5"
        )
        assert code == 2 and "error:" in err

    def test_negative_size_cap_is_parameter_error(self, capsys):
        code, out, err = run(
            capsys, "analyze", PETERSEN, "--exact", "--max-edges", "-3"
        )
        assert code == 2 and "rd_lower" not in out
        assert err == "error: max_search_edges must be a nonnegative edge count\n"
        # a cap of 0 still lets the rules settle a graph
        code, out, _ = run(capsys, "analyze", "C~", "--exact", "--max-edges", "0")
        assert code == 0 and "rd = 3 (rule: two_universal_vertices)" in out


# the edge-list reader's rejections of inputs that start with a digit, and
# graph6 streams whose bad string follows blank lines and a header: a
# command that reads one graph reports each with the reader's own message
BAD_ONE_GRAPH_INPUTS = [
    (plain, read_edge_list)
    for plain, _, _ in test_graphs.TestEdgeList.SHARED_CHECKS
    if plain[:1].isdigit()
] + [
    (text, load_graph6_stream)
    for text in (
        "\n\n>>graph6<<\nB~x\n",
        ">>graph6<<\n  \nD??@\n",
        "\n>>graph6<<Bw\n\nC!\n",
        "  \n>>graph6<<C\n",
    )
]


@pytest.mark.parametrize("command", ["analyze", "color"])
@pytest.mark.parametrize("text, reader", BAD_ONE_GRAPH_INPUTS)
def test_one_graph_input_errors_are_the_readers(capsys, command, text, reader):
    with pytest.raises(RdError) as want:
        reader(text)
    code, out, err = run(capsys, command, text)
    assert (code, out, err) == (2, "", f"error: {want.value}\n")


def test_an_edge_list_after_a_header_is_an_edge_list(capsys):
    # the format is read off the first line past blank lines and headers
    plain = run(capsys, "analyze", "4 3\n0 1\n1 2\n2 3\n")
    assert plain[0] == 0 and "n = 4" in plain[1] and "m = 3" in plain[1]
    assert run(capsys, "analyze", "\n>>edges<<\n4 3\n0 1\n1 2\n2 3\n") == plain
    assert run(capsys, "analyze", ">>edges<<\n4 3\n0 1\n1 2\n2 3\n") == plain


class TestColorVerify:
    def test_round_trip(self, capsys, tmp_path):
        out_file = str(tmp_path / "c.txt")
        code, out, _ = run(capsys, "color", PETERSEN, "--out", out_file)
        assert code == 0
        assert "colors = 4" in out
        code, out, _ = run(capsys, "verify", out_file)
        assert code == 0
        assert out.strip().endswith("OK pairs=45 colors=4")

    def test_verify_long_cycle(self, capsys, tmp_path):
        out_file = str(tmp_path / "c25.txt")
        code, _, _ = run(
            capsys, "color", encode_graph6(cycle_graph(25)), "--out", out_file
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", out_file)
        assert code == 0
        assert out.strip().endswith("OK pairs=300 colors=2")

    def test_verify_budget_env(self, capsys, monkeypatch):
        # pairs away from vertex 0 of this 2-colored C10 need a side beyond
        # the two stars, which takes more than one search node
        monkeypatch.setenv("RD_BUDGET", "1")
        code, _, err = run(capsys, "verify", str(DATA / "c10.coloring"))
        assert code == 3
        assert "budget" in err

    def test_verify_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("4 4 1\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n")
        )
        code, out, _ = run(capsys, "verify", "-")
        assert code == 1
        assert out.startswith("FAIL pair")

    @pytest.mark.parametrize(
        "coloring,graph",
        [("4 2 1\n0 1 1\n2 3 1\n", "4 2\n0 1\n2 3\n"), ("1 0 0\n", "1 0\n")],
    )
    def test_verify_rejects_what_analyze_rejects(
        self, capsys, monkeypatch, coloring, graph
    ):
        # a disconnected graph and a single vertex have no value to certify
        code, _, undefined = run(capsys, "analyze", graph)
        assert code == 2 and undefined
        monkeypatch.setattr("sys.stdin", io.StringIO(coloring))
        assert run(capsys, "verify", "-") == (2, "", undefined)


class TestConstruct:
    def test_extremal(self, capsys, tmp_path):
        prefix = str(tmp_path / "ex")
        code, out, _ = run(capsys, "construct", "extremal", "7", "3",
                           "--out", prefix)
        assert code == 0
        assert "m = 12" in out and "colors = 3" in out
        assert (tmp_path / "ex.g6").exists()
        assert (tmp_path / "ex.coloring").exists()

    def test_extremal_rejects_even_order(self, capsys):
        code, _, err = run(capsys, "construct", "extremal", "6", "2")
        assert code == 2 and "error:" in err

    def test_extremal_needs_k(self, capsys):
        code, _, err = run(capsys, "construct", "extremal", "7")
        assert code == 2

    def test_sharp_split(self, capsys):
        code, out, _ = run(capsys, "construct", "ng-sharp", "6")
        assert code == 0
        assert "value = 4" in out and "complement_value = 3" in out
        assert "sum = 7" in out

    def test_sharp_split_writes_its_graph(self, capsys, tmp_path):
        prefix = str(tmp_path / "sh")
        code, out, _ = run(capsys, "construct", "ng-sharp", "6", "--out", prefix)
        assert code == 0 and out.endswith(f"wrote {prefix}.g6\n")
        want = encode_graph6(construct_ng_sharp_graph(6)) + "\n"
        assert (tmp_path / "sh.g6").read_text() == want

    def test_sharp_split_rejects_k(self, capsys):
        code, out, err = run(capsys, "construct", "ng-sharp", "6", "3")
        assert code == 2 and out == "" and "ng-sharp takes n only" in err


class TestSurvey:
    def test_census(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "4")
        assert code == 0
        assert out.startswith("SURVEY graphs=6\n")
        assert "RESULT ok" in out

    def test_rules_filter_and_alias(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "4", "--rules",
                           "ng,lemma_chain")
        assert code == 0
        assert "RULE ng_sum_lower" in out and "RULE lemma_chain" in out
        assert "RULE tree_rd_one" not in out

    def test_unknown_rule(self, capsys):
        code, _, err = run(capsys, "survey", "--n", "4", "--rules", "nope")
        assert code == 2 and "unknown" in err

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(">>graph6<<\nCh\nC~\n")
        code, out, _ = run(capsys, "survey", "--in", str(path),
                           "--rules", "lemma_chain")
        assert code == 0
        assert "SURVEY graphs=2" in out

    def test_graph_on_the_header_line_is_surveyed(self, capsys, tmp_path):
        # nauty writes its header with no line end before the first graph
        path = tmp_path / "graphs.g6"
        path.write_text(">>graph6<<Bw\nBg\n")
        code, out, _ = run(capsys, "survey", "--in", str(path),
                           "--rules", "lemma_chain")
        assert code == 0 and "SURVEY graphs=2" in out
        path.write_text(">>graph6<<D??@\n")
        code, out, err = run(capsys, "survey", "--in", str(path))
        assert (code, out) == (2, "")
        assert "line 1: byte 3: expected 3 bytes for order 5, got 4" in err

    def test_malformed_input_names_its_line(self, capsys, tmp_path):
        # the header and the blank line count: the bad string is on line 3
        path = tmp_path / "graphs.g6"
        path.write_text(">>graph6<<\n\nD??@\nCh\n")
        code, out, err = run(capsys, "survey", "--in", str(path))
        assert (code, out) == (2, "")
        assert "line 3: byte 3: expected 3 bytes for order 5, got 4" in err

    @pytest.mark.parametrize("text", ["", "\n>>graph6<<\n\n"])
    def test_input_without_a_graph_rejected(self, capsys, tmp_path, text):
        # a survey of no graph would check nothing and print RESULT ok
        path = tmp_path / "graphs.g6"
        path.write_text(text)
        code, out, err = run(capsys, "survey", "--in", str(path))
        assert (code, out, err) == (2, "", "error: no graph in input\n")

    def test_order_help_names_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["survey", "--help"])
        assert f"census order (1..{ENUMERATION_MAX_ORDER})" in capsys.readouterr().out

    def test_needs_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "survey")
        assert code == 2
        code, _, _ = run(capsys, "survey", "--n", "4", "--in", "x.g6")
        assert code == 2

    @pytest.mark.parametrize("graph6", ["E~{?", "A?"])  # K5 plus K1; 2K1
    def test_graphs_out_of_scope_get_na_on_every_rule(self, capsys, tmp_path, graph6):
        path = tmp_path / "graphs.g6"
        path.write_text(graph6 + "\n")
        code, out, err = run(capsys, "survey", "--in", str(path))
        assert code == 0 and err == ""
        rules = [ln for ln in out.splitlines() if ln.startswith("RULE ")]
        assert len(rules) == len(HARNESS_RULE_NAMES)
        assert all(ln.endswith(" pass=0 fail=0 na=1") for ln in rules)
        assert out.endswith("RESULT ok\n")

    @pytest.mark.parametrize("command", [["survey", "--n", "3"], ["analyze", "Ch"]])
    def test_zero_budget_rejected(self, capsys, command):
        code, out, err = run(capsys, *command, "--budget", "0")
        assert code == 2 and out == ""
        assert err == "error: budget must be a positive node count\n"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--jobs", "-4", "jobs must be a positive count"),
            ("--jobs", "0", "jobs must be a positive count"),
            ("--samples", "-2", "samples must be a positive count"),
            ("--samples", "0", "samples must be a positive count"),
            # a list naming no rule would check nothing and print RESULT ok
            ("--rules", ",", "rules must name at least one harness rule"),
            ("--rules", "", "rules must name at least one harness rule"),
        ],
    )
    def test_bad_counts_rejected(self, capsys, option, value, message):
        code, out, err = run(capsys, "survey", "--n", "3", option, value)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RD_BUDGET", "30")
        code, out, _ = run(capsys, "survey", "--n", "6")
        assert code == 0
        assert out == (DATA / "survey_n6_budget30.txt").read_text()
        monkeypatch.setenv("RD_BUDGET", "abc")
        code, out, err = run(capsys, "survey", "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: RD_BUDGET is not an integer: 'abc'\n"

    def test_budget_option_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RD_BUDGET", "1")
        code, out, _ = run(capsys, "survey", "--n", "6", "--budget", "30")
        assert code == 0
        assert out == (DATA / "survey_n6_budget30.txt").read_text()

    def test_report_written(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code, out, _ = run(capsys, "survey", "--n", "4", "--out",
                           str(out_file), "--rules", "lemma_chain")
        assert code == 0
        assert out_file.read_text() == out
