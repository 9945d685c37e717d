import random
import zlib
from functools import cached_property

import pytest

from rdnum import (
    ClassVerdict,
    ParameterError,
    SurveyConfig,
    check_theorems,
    color_critical_value,
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
from rdnum import coloring, survey
from rdnum.cli import main
from rdnum.budget import Budget
from rdnum.errors import SizeError, Undecided
from rdnum.graphs import Graph, complement, parse_graph6
from rdnum.rd import CHAIN_RULES, FAST_AUX_RULES, rd_exact
from rdnum.survey import (
    ENUMERATION_MAX_ORDER,
    HARNESS_RULE_NAMES,
    NG_RULE_ALIAS,
    SEARCH_EDGE_CAP,
    _Ctx,
    _label,
    canonical_form,
)

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
            enumerate_connected_graphs(ENUMERATION_MAX_ORDER + 1)
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
        # None means every rule; an empty selection would check nothing
        with pytest.raises(ParameterError, match="at least one harness rule"):
            SurveyConfig(rules=())

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

    def test_class1_fast_paths_catches_a_wrong_structural_verdict(self, monkeypatch):
        # the exact χ′ search never reads structural_class, so a wrong
        # verdict on one class, the 4-cycle (bipartite, χ′ = 2) called Class
        # 2, fails class1_fast_paths on that graph alone.  No other test of
        # the rule applies to C4, so an exact search that read the verdict
        # would agree with it and pass
        graphs = enumerate_connected_graphs(4)
        c4 = next(g for g in graphs if set(g.degrees) == {2})
        real = coloring.structural_class

        def wrong(g):
            cv = real(g)
            return ClassVerdict(3, 2, cv.method) if g.edges == c4.edges else cv

        config = SurveyConfig(rules=("class1_fast_paths",))
        assert run_survey(graphs, config).violations == ()
        monkeypatch.setattr(coloring, "structural_class", wrong)
        got = run_survey(graphs, config).violations
        assert got == ((encode_graph6(c4), "class1_fast_paths", ""),)


class TestCriticalMinDegree:
    RULE = SurveyConfig(rules=("critical_min_degree",))

    def test_criticality_is_tested_by_deletions(self, monkeypatch):
        # a path made to look edge-critical with chromatic number 3: every
        # deletion lowers it, yet the ends have degree 1, below 3 - 1
        def chromatic_number(g, budget=None):
            return 3 if g.m == 3 else 2

        monkeypatch.setattr(survey, "chromatic_number", chromatic_number)
        (oc,) = check_theorems(path_graph(4), self.RULE).outcomes
        assert oc.status == "fail"

    def test_outcomes(self):
        # K5 and C5 are critical; deleting an edge of C6 leaves a path, which
        # keeps chromatic number 2; one node is too few to color C5
        got = [
            check_theorems(g, cfg).outcomes[0].status
            for g, cfg in [
                (complete_graph(5), self.RULE),
                (cycle_graph(5), self.RULE),
                (cycle_graph(6), self.RULE),
                (cycle_graph(5), SurveyConfig(self.RULE.rules, budget_nodes=1)),
            ]
        ]
        assert got == ["pass", "pass", "na", "na"]

    def test_the_deletions_are_colored_once(self, monkeypatch):
        # critical_lower colors K4's deletions through the color_critical
        # rule; critical_min_degree replays that outcome
        runs = []
        real = coloring._color_fail_first

        def counted(*args):
            runs.append(args[1])
            return real(*args)

        monkeypatch.setattr(coloring, "_color_fail_first", counted)
        assert color_critical_value(complete_graph(4)) == 4
        alone = list(runs)
        runs.clear()
        config = SurveyConfig(rules=("critical_lower", "critical_min_degree"))
        rep = check_theorems(complete_graph(4), config)
        assert [oc.status for oc in rep.outcomes] == ["pass", "pass"]
        # χ = 4 is searched at k = 2 and 3, and each deletion at k = 2
        assert runs == alone == [2, 3] + [2] * 6


class TestTableMemo:
    def test_settled_values_are_kept(self):
        ctx = _Ctx(complete_graph(5), SurveyConfig())
        assert survey._TABLE["color_critical"].value(ctx.g, ctx.budget) == (4, 5)
        assert survey._TABLE["cycle"].value(ctx.g, ctx.budget) is None

    def test_budget_overrun_is_not_stored(self):
        # Petersen's value runs out of one node; K5's is pinned by its
        # bounds at no cost, and the search for its chromatic number runs out
        config = SurveyConfig(rules=("critical_lower",), budget_nodes=1)
        (oc,) = check_theorems(petersen_graph(), config).outcomes
        assert oc.status == "na"
        (oc,) = check_theorems(complete_graph(5), config).outcomes
        assert (oc.status, oc.detail) == ("na", "")


def _relabeled(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _degree_relabeled(g):
    """g relabeled by ascending degree, ties broken by vertex, as its order
    and edge set."""
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    label = {v: i for i, v in enumerate(order)}
    return g.n, frozenset(frozenset((label[a], label[b])) for a, b in g.edges)


def _stored(classes: dict) -> dict:
    """The values kept on the Graphs of a class table, by canonical form,
    with the nodes their solves cost."""
    return {
        (rep.n, rep.edges): kept[CHAIN_RULES]
        for rep in set(classes.values())
        if CHAIN_RULES in (kept := vars(rep).get("_searched", {}))
    }


def _count_solves(monkeypatch) -> list:
    """Record the graph of every rd_exact call the survey makes."""
    solved = []
    real = survey.rd_exact

    def counted(h, *args, **kwargs):
        solved.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(survey, "rd_exact", counted)
    return solved


class TestSolveMemo:
    # value 3 by search at a cost of 38 nodes under CHAIN_RULES: 7 search
    # nodes and 31 to list the cut sides (the stars certify the coloring).
    # AUX is its own canonical relabeling, so the class table keeps it as
    # the Graph of its class: the tests that solve it take a fresh copy
    # (`aux`), as a value kept on a Graph lives as long as the Graph
    AUX = parse_graph6("Dr[")

    @property
    def aux(self) -> Graph:
        return Graph(self.AUX.n, self.AUX.edges)

    def test_the_cost_is_what_rd_exact_spends(self):
        budget = Budget()
        res = rd_exact(
            Graph(*canonical_form(self.AUX)),
            budget,
            max_search_edges=SEARCH_EDGE_CAP,
            rules=CHAIN_RULES,
        )
        assert (res.value, res.method, res.search_nodes) == (3, "search", 7)
        assert budget.spent == 38

    def test_isomorphic_graph_is_a_hit_charged_like_a_solve(self, monkeypatch):
        solved = _count_solves(monkeypatch)
        classes = {}
        first = _Ctx(cycle_graph(5), SurveyConfig(), classes)
        assert first.rd_of(_relabeled(self.AUX, [4, 2, 0, 1, 3])) == 3
        assert len(solved) == 1 and first.budget.spent == 38

        h = _relabeled(self.AUX, [1, 3, 4, 0, 2])
        hit = _Ctx(path_graph(5), SurveyConfig(), classes)
        hit.budget.spend(7)
        assert hit.rd_of(h) == 3
        assert len(solved) == 1
        real = _Ctx(path_graph(5), SurveyConfig())
        real.budget.spend(7)
        assert real.rd_of(h) == 3
        assert len(solved) == 2
        assert hit.budget.spent == real.budget.spent == 45

    @pytest.mark.parametrize("h", [parse_graph6("Dr["), petersen_graph()])
    def test_budget_overrun_is_not_stored(self, h):
        ctx = _Ctx(cycle_graph(5), SurveyConfig(budget_nodes=1))
        assert ctx.rd_of(h) is None
        assert ctx.budget.spent > ctx.budget.limit
        assert _stored(ctx._classes) == {}
        assert CHAIN_RULES not in vars(h).get("_searched", {})

    def test_graphs_above_the_census_order_are_solved_as_given(self, monkeypatch):
        solved = _count_solves(monkeypatch)
        ctx = _Ctx(cycle_graph(5), SurveyConfig())
        p = petersen_graph()
        assert ctx.rd_of(p) == 4
        assert ctx.rd_of(p) == 4
        assert solved == [p, p] and all(h is p for h in solved)
        assert ctx._classes == {}
        assert CHAIN_RULES not in vars(p).get("_searched", {})

    def test_short_budget_solves_for_real(self, monkeypatch):
        solved = _count_solves(monkeypatch)
        classes = {}
        _Ctx(cycle_graph(5), SurveyConfig(), classes).rd_of(self.aux)
        assert _stored(classes) == {canonical_form(self.AUX): (3, 38)}

        short = _Ctx(cycle_graph(5), SurveyConfig(budget_nodes=37), classes)
        fresh = _Ctx(cycle_graph(5), SurveyConfig(budget_nodes=37))
        assert short.rd_of(self.aux) == fresh.rd_of(self.aux)
        assert short.budget.spent == fresh.budget.spent
        assert len(solved) == 3

        exact = _Ctx(cycle_graph(5), SurveyConfig(budget_nodes=38), classes)
        assert exact.rd_of(self.aux) == 3
        assert exact.budget.spent == 38 and len(solved) == 3

    def test_one_labeling_per_derived_graph(self, monkeypatch):
        # the four ng_* rules each ask for the value of ctx.co: it is put in
        # degree form and labeled once, solved once and charged four times
        solved = _count_solves(monkeypatch)
        formed, labeled = [], []
        real_form, real_label = survey._degree_form, survey.canonical_form

        def counted_form(h):
            formed.append(h)
            return real_form(h)

        def counted(h):
            labeled.append(h)
            return real_label(h)

        monkeypatch.setattr(survey, "_degree_form", counted_form)
        monkeypatch.setattr(survey, "canonical_form", counted)
        ctx = _Ctx(complement(self.AUX), SurveyConfig())
        assert ctx.co == self.AUX
        assert [ctx.rd_of(ctx.co) for _ in range(4)] == [3] * 4
        assert formed == labeled == [self.AUX] and len(solved) == 1
        assert ctx.budget.spent == 4 * 38

    def test_a_surveyed_census_graph_is_its_own_key(self, monkeypatch):
        # AUX is a census graph: its context does not label it, enters it in
        # the table as the Graph of its class and solves it as given; a
        # graph of an order not enumerated in the process, as a --in graph
        # may be, is labeled, here to the same Graph, which replays
        aux = self.aux
        assert aux in survey._all_graphs(5)
        solved = _count_solves(monkeypatch)
        labeled = []
        real_label = survey.canonical_form

        def counted(h):
            labeled.append(h)
            return real_label(h)

        monkeypatch.setattr(survey, "canonical_form", counted)
        ctx = _Ctx(aux, SurveyConfig())
        assert ctx.rd == 3 and labeled == [] and solved == [aux]
        assert solved[0] is aux and ctx.budget.spent == 38
        assert ctx._classes == {canonical_form(aux): aux}

        monkeypatch.setattr(survey, "_CENSUS", {})
        again = _Ctx(aux, SurveyConfig())
        assert again.rd == 3 and labeled == [aux] and solved == [aux]
        assert again.budget.spent == 38

    def test_a_surveyed_graph_asks_the_graph_of_its_class(self):
        # a census graph whose class the table holds already, as a graph
        # derived from an earlier surveyed graph, is checked on that Graph
        classes = {}
        h = _relabeled(self.AUX, [4, 2, 0, 1, 3])
        rep = _label(classes, h, survey._degree_form(h))
        aux = self.aux
        ctx = _Ctx(aux, SurveyConfig(), classes)
        assert ctx.g == aux and ctx.g is rep and rep is not aux

    def test_one_labeling_per_degree_form_per_survey(self, monkeypatch):
        # the census labels each degree form of its candidates once, and a
        # survey each degree form of its rd_of inputs once, except the
        # surveyed graphs, which come with their keys; a second survey
        # labels as much again, so no table outlives the survey that made
        # it.  The census of orders 1..6 labels 272 candidates and the
        # survey 246 graphs (305 when it also labeled the surveyed ones).
        # The forms are recorded as they reach `_label`, which the census
        # reaches only with a form new to its table
        forms = {"census": set(), "rd_of": set()}
        where = ["census"]
        labeled = []
        real_lookup, real_label, real_rd_of = (
            survey._label, survey.canonical_form, _Ctx.rd_of
        )

        def recorded_lookup(table, g, form):
            assert form == survey._degree_form(g)
            forms[where[-1]].add(_degree_relabeled(g))
            return real_lookup(table, g, form)

        def recorded_rd_of(ctx, h):
            where.append("rd_of")
            try:
                return real_rd_of(ctx, h)
            finally:
                where.pop()

        def counted(g):
            labeled.append(g)
            return real_label(g)

        monkeypatch.setattr(survey, "_label", recorded_lookup)
        monkeypatch.setattr(survey, "canonical_form", counted)
        monkeypatch.setattr(_Ctx, "rd_of", recorded_rd_of)
        counts = []
        for _ in range(2):
            monkeypatch.setattr(survey, "_CENSUS", {})
            labeled.clear()
            for seen in forms.values():
                seen.clear()
            run_survey(enumerate_connected_graphs(6))
            assert len(labeled) == len(forms["census"]) + len(forms["rd_of"])
            assert forms["rd_of"]
            counts.append((len(forms["census"]), len(forms["rd_of"])))
        assert counts == [(272, 246)] * 2

    def test_one_kernel_run_per_search_of_a_class(self, monkeypatch):
        # every rule, and every later graph of a class, asks the one Graph of
        # the class, so an edge search made on a derived graph is replayed
        # when the class is surveyed: the order-6 survey runs the edge
        # kernel 113 times (122 when each surveyed graph was a new object)
        solved = _count_solves(monkeypatch)
        runs = {"edge": 0, "chi": 0}
        real = coloring._color_fail_first

        def counted(*args):
            # an edge search pre-colors the star of a vertex; χ's none
            runs["edge" if args[3] else "chi"] += 1
            return real(*args)

        monkeypatch.setattr(coloring, "_color_fail_first", counted)
        run_survey(enumerate_connected_graphs(6))
        assert (runs["edge"], runs["chi"], len(solved)) == (113, 319, 127)

    def test_one_solve_per_isomorphism_class(self, monkeypatch):
        # the surveyed graphs and the graphs derived from them, together:
        # the census classes plus the smaller classes of blocks and samples
        solved = _count_solves(monkeypatch)
        asked = set()
        real_rd_of = _Ctx.rd_of

        def recorded(ctx, h):
            asked.add(canonical_form(h))
            return real_rd_of(ctx, h)

        monkeypatch.setattr(_Ctx, "rd_of", recorded)
        for n, solves in [(6, 127), (7, 924)]:
            solved.clear()
            asked.clear()
            census = enumerate_connected_graphs(n)
            run_survey(census)
            assert len(solved) == len(asked) == solves
            assert {canonical_form(h) for h in solved} == asked
            assert {canonical_form(g) for g in census} <= asked


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

    @pytest.mark.parametrize("budget_nodes", [30, 300])
    def test_jobs_do_not_change_output_under_small_budgets(self, budget_nodes):
        graphs = enumerate_connected_graphs(6)
        seq = run_survey(graphs, SurveyConfig(budget_nodes=budget_nodes, jobs=1))
        par = run_survey(graphs, SurveyConfig(budget_nodes=budget_nodes, jobs=2))
        assert survey_to_text(seq) == survey_to_text(par)

    def test_seed_changes_subgraph_samples_not_correctness(self):
        graphs = enumerate_connected_graphs(5)
        a = run_survey(graphs, SurveyConfig(seed=1))
        b = run_survey(graphs, SurveyConfig(seed=2))
        assert not a.violations and not b.violations

    def test_violations_are_counted_and_listed(self, monkeypatch, capsys):
        census = enumerate_connected_graphs(4)
        target = census[2]
        real = survey._RULE_FN["mader_bound"]

        def planted(ctx):
            if ctx.g == target:
                return survey.FAIL, None, "planted detail"
            return real(ctx)

        monkeypatch.setitem(survey._RULE_FN, "mader_bound", planted)
        res = run_survey(census)
        stats = {name: (p, f, na) for name, p, f, na in res.rule_stats}
        assert stats["mader_bound"][1] == 1 and sum(stats["mader_bound"]) == 6
        lines = survey_to_text(res).splitlines()
        assert f"VIOLATION {encode_graph6(target)} mader_bound planted detail" in lines
        assert lines[-1] == "RESULT violations=1"
        assert main(["survey", "--n", "4"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "RESULT violations=1"

    def test_text_format(self):
        res = run_survey(enumerate_connected_graphs(4))
        text = survey_to_text(res)
        assert text.startswith("SURVEY graphs=6\n")
        assert "RULE lemma_chain pass=6 fail=0 na=0" in text
        assert text.rstrip().endswith("RESULT ok")


def _old_spanning_subgraphs(self):
    """`_Ctx.spanning_subgraphs` as it was before it tested reach on masks,
    building a Graph per trial removal; copied verbatim from the code
    before it (renamed with an _old prefix)."""
    g = self.g
    rng = random.Random(
        zlib.crc32(encode_graph6(g).encode()) ^ (self.config.seed or 0)
    )
    out = []
    for _ in range(self.config.sample_count):
        edges = list(g.edges)
        rng.shuffle(edges)
        kept = list(g.edges)
        for e in edges:
            if len(kept) == g.n - 1:
                break
            if rng.random() < 0.5:
                continue
            trial = [x for x in kept if x != e]
            h = Graph(g.n, tuple(sorted(trial)))
            if h.is_connected():
                kept = trial
        if len(kept) < g.m:
            out.append(Graph(g.n, tuple(sorted(kept))))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_spanning_samples_match_the_graph_building_sampler(seed):
    samples = 0
    for g in enumerate_connected_graphs(7):
        ctx = _Ctx(g, SurveyConfig(seed=seed))
        new = ctx.spanning_subgraphs()
        assert new == _old_spanning_subgraphs(ctx), g
        assert all(h.is_connected() for h in new)
        samples += len(new)
    assert samples > 5000


def _old_label(table: dict, g: Graph) -> tuple[int, tuple]:
    """`survey._label` as it was before it returned one Graph per class,
    copied verbatim from the code before it (renamed with an _old prefix)."""
    form = survey._degree_form(g)
    key = table.get(form)
    if key is None:
        key = canonical_form(g)
        key = table[form] = table.setdefault(key, key)
    return key


class _OldCtx(_Ctx):
    """`_Ctx` with the two solve routes it had before one memo served both:
    `rd` and `rd_of` copied verbatim from the code before it, with their
    own memo of values and table of its keys (`_old_label`), one pair per
    survey, kept in the survey's class table under this class."""

    def __init__(self, g: Graph, config: SurveyConfig, classes: dict | None = None):
        super().__init__(g, config, classes)
        self._memo, self._labels = self._classes.setdefault(_OldCtx, ({}, {}))

    @cached_property
    def rd(self) -> int | None:
        """The value from connectivity bounds plus exact search only."""
        try:
            return rd_exact(
                self.g, self.budget, max_search_edges=SEARCH_EDGE_CAP, rules=CHAIN_RULES
            ).value
        except (Undecided, SizeError):
            return None

    def rd_of(self, h: Graph) -> int | None:
        """Auxiliary value for derived graphs; all cheap rules allowed.

        The solve runs on the canonical relabeling of h, so its outcome and
        node cost depend only on the isomorphism class and on the budget
        left.  An outcome is stored with its cost when the solve stayed
        within the budget; a later call with at least that cost left is
        charged the cost and gets the stored outcome, which is what solving
        again would give.  Any other call solves.  The canonical form of h
        comes through the `labels` table, so h is labeled only when its
        degree form is new to it; only the labeling is saved, as every call
        still goes through the memo and its budget test.

        Graphs above the census order are solved as given and not stored:
        the memo and the census share one order cap, ENUMERATION_MAX_ORDER,
        up to which canonical_form is tested against the permutation search
        whose keys it reproduces."""
        budget = self.budget
        key = None
        if h.n <= ENUMERATION_MAX_ORDER:
            key = _old_label(self._labels, h)
            known = self._memo.get(key)
            if known is not None and known[1] <= budget.remaining:
                budget.spent += known[1]
                return known[0]
            h = Graph(*key)
        before = budget.spent
        try:
            value = rd_exact(
                h, budget, max_search_edges=SEARCH_EDGE_CAP, rules=FAST_AUX_RULES
            ).value
        except SizeError:
            value = None
        except Undecided:
            return None
        if key is not None and budget.spent <= budget.limit:
            self._memo[key] = (value, budget.spent - before)
        return value


@pytest.mark.parametrize("n", range(2, ENUMERATION_MAX_ORDER + 1))
def test_full_budget_reports_match_the_two_route_survey(monkeypatch, n):
    census = enumerate_connected_graphs(n)
    new = survey_to_text(run_survey(census))
    monkeypatch.setattr(survey, "_Ctx", _OldCtx)
    old = survey_to_text(run_survey(census))
    assert new == old
    assert new.endswith("RESULT ok\n")
