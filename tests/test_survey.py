import random

import pytest

from rdnum import (
    ParameterError,
    SurveyConfig,
    check_theorems,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_connected_graphs,
    load_graph6_stream,
    path_graph,
    petersen_graph,
    run_survey,
    survey_to_text,
)
from rdnum.survey import HARNESS_RULE_NAMES, NG_RULE_ALIAS, _Ctx, canonical_form

from test_graphs import random_graph


class TestEnumeration:
    def test_census_counts(self):
        want = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in want.items():
            assert len(enumerate_connected_graphs(n)) == count

    def test_census_members_are_connected_and_distinct(self):
        graphs = enumerate_connected_graphs(5)
        assert all(g.is_connected() for g in graphs)
        keys = {canonical_form(g) for g in graphs}
        assert len(keys) == len(graphs)

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            enumerate_connected_graphs(8)
        with pytest.raises(ParameterError):
            enumerate_connected_graphs(0)

    def test_canonical_form_is_relabeling_invariant(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, p=0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            from rdnum import Graph

            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(g) == canonical_form(h)

    def test_canonical_form_separates_non_isomorphic(self):
        graphs = enumerate_connected_graphs(6)
        keys = [canonical_form(g) for g in graphs]
        assert len(set(keys)) == 112


class TestStreams:
    def test_load_skips_headers_and_blanks(self):
        text = ">>graph6<<\n\nCh\nC~\n"
        got = load_graph6_stream(text)
        assert [g.n for g in got] == [4, 4]
        assert got[0] == path_graph(4)


class TestConfig:
    def test_rule_validation(self):
        with pytest.raises(ParameterError):
            SurveyConfig(rules=("bogus",)).active_rules()
        cfg = SurveyConfig(rules=("mader_bound", "lemma_chain"))
        # registry order is kept regardless of request order
        assert cfg.active_rules() == ("lemma_chain", "mader_bound")
        assert SurveyConfig().active_rules() == HARNESS_RULE_NAMES

    def test_ng_alias_names_exist(self):
        assert set(NG_RULE_ALIAS) <= set(HARNESS_RULE_NAMES)


class TestCheckTheorems:
    def test_path_all_pass(self):
        rep = check_theorems(path_graph(4))
        assert rep.graph6 == encode_graph6(path_graph(4))
        assert len(rep.outcomes) == len(HARNESS_RULE_NAMES)
        assert all(oc.status in ("pass", "na") for oc in rep.outcomes)

    def test_rule_filter(self):
        rep = check_theorems(
            cycle_graph(5), SurveyConfig(rules=("cycle_rd_two",))
        )
        assert [oc.rule for oc in rep.outcomes] == ["cycle_rd_two"]
        assert rep.outcomes[0].status == "pass"

    def test_complete_graph_outcomes(self):
        rep = check_theorems(complete_graph(5))
        by_rule = {oc.rule: oc for oc in rep.outcomes}
        assert by_rule["complete_rd"].status == "pass"
        assert by_rule["two_universal_iff"].status == "pass"
        assert by_rule["cycle_rd_two"].status == "na"
        assert by_rule["critical_lower"].status == "pass"
        assert by_rule["critical_lower"].witness_value == 4


class TestTableMemo:
    def test_settled_values_are_kept(self):
        ctx = _Ctx(complete_graph(5), SurveyConfig())
        assert ctx.table_value("color_critical") == (4, 5)
        assert ctx.table_value("cycle") is None
        assert ctx._table == {"color_critical": (4, 5), "cycle": None}

    def test_budget_overrun_is_not_stored(self):
        ctx = _Ctx(petersen_graph(), SurveyConfig(budget_nodes=1))
        assert ctx.table_value("color_critical") is None
        assert "color_critical" not in ctx._table


class TestRunSurvey:
    def test_census_five_clean(self):
        res = run_survey(enumerate_connected_graphs(5))
        assert res.total == 21
        assert not res.violations
        stats = dict((name, (p, f, na)) for name, p, f, na in res.rule_stats)
        assert stats["lemma_chain"] == (21, 0, 0)
        assert stats["tree_rd_one"] == (21, 0, 0)
        assert stats["cycle_rd_two"][0] == 1

    def test_jobs_do_not_change_output(self):
        graphs = enumerate_connected_graphs(5)
        seq = run_survey(graphs, SurveyConfig(jobs=1))
        par = run_survey(graphs, SurveyConfig(jobs=3))
        assert survey_to_text(seq) == survey_to_text(par)

    def test_seed_changes_subgraph_samples_not_correctness(self):
        graphs = enumerate_connected_graphs(5)
        a = run_survey(graphs, SurveyConfig(seed=1))
        b = run_survey(graphs, SurveyConfig(seed=2))
        assert not a.violations and not b.violations

    def test_text_format(self):
        res = run_survey(enumerate_connected_graphs(4))
        text = survey_to_text(res)
        assert text.startswith("SURVEY graphs=6\n")
        assert "RULE lemma_chain pass=6 fail=0 na=0" in text
        assert text.rstrip().endswith("RESULT ok")
