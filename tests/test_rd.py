import random
from itertools import combinations, permutations
from typing import NamedTuple

import pytest

from rdnum import (
    CHAIN_RULES,
    Budget,
    EdgeColoring,
    Graph,
    ParameterError,
    RdError,
    SizeError,
    StructureError,
    Undecided,
    certificate_is_valid,
    certificate_to_text,
    complement,
    complete_graph,
    complete_multipartite,
    construct_extremal_graph,
    construct_ng_sharp_graph,
    construct_rd_coloring,
    cycle_graph,
    enumerate_connected_graphs,
    find_rainbow_cut,
    multipartite_parts,
    parse_graph6,
    path_graph,
    petersen_graph,
    rd_bounds,
    rd_exact,
    star_graph,
    upper_edge_connectivity,
    verify_rd_coloring,
)
from rdnum import rd
from rdnum.coloring import chromatic_coloring
from rdnum.graphs import Edge, mask_vertices
from rdnum.budget import as_budget
from rdnum.rd import (
    DEFAULT_SEARCH_EDGE_CAP,
    RainbowCutCertificate,
    RdResult,
    VerificationReport,
    _bipartitions,
    _build_cut_system,
    _cut_sides,
    _multipartite_masks,
    _pinning_rule,
    _rd_search,
)
from rdnum.survey import _all_graphs

from _oracles import has_rainbow_cut_brute, rd_brute
from test_bipartitions import generalized_petersen
from test_graphs import random_graph

PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])


def _census7() -> list[Graph]:
    """The connected graphs of orders 2..7, one per isomorphism class."""
    return [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]


def _search7_graphs() -> list[Graph]:
    """The inputs of the search7 benchmark workload: the census of orders
    2..7, then Petersen and GP(n, 2) for n = 6..9, which all have more
    vertices.  Each call builds new named graphs, which hold no kept
    search outcomes."""
    named = [petersen_graph()] + [generalized_petersen(n, 2) for n in range(6, 10)]
    return _census7() + named


class TestExactValues:
    @pytest.mark.parametrize(
        "g,value",
        [
            (path_graph(2), 1),
            (path_graph(4), 1),
            (star_graph(4), 1),
            (cycle_graph(4), 2),
            (PAW, 2),
            (DIAMOND, 3),
            (complete_graph(4), 3),
        ],
    )
    def test_hand_checked_small_graphs(self, g, value):
        assert rd_exact(g).value == value
        assert rd_exact(g, rules=()).value == value

    def test_against_brute_force_census(self):
        from rdnum import enumerate_connected_graphs

        for n in (2, 3, 4):
            for g in enumerate_connected_graphs(n):
                assert rd_exact(g, rules=()).value == rd_brute(g)

    def test_against_brute_force_random_order_five(self):
        rng = random.Random(515)
        done = 0
        while done < 12:
            g = random_graph(rng, 5, p=rng.choice([0.4, 0.6]))
            if not g.is_connected() or g.m > 8:
                continue
            done += 1
            assert rd_exact(g, rules=()).value == rd_brute(g)

    def test_search_colorings_verify(self):
        for g in (cycle_graph(5), PAW, DIAMOND, petersen_graph()):
            res = rd_exact(g, rules=CHAIN_RULES)
            if res.coloring is not None:
                report = verify_rd_coloring(res.coloring)
                assert report.ok
                assert res.coloring.num_colors <= res.value

    def test_requires_nontrivial_connected(self):
        with pytest.raises(StructureError):
            rd_exact(Graph.from_edges(1, []))
        with pytest.raises(StructureError):
            rd_exact(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_size_cap(self):
        with pytest.raises(SizeError):
            rd_exact(petersen_graph(), rules=CHAIN_RULES, max_search_edges=10)

    def test_budget_exhaustion_carries_partial_bounds(self):
        with pytest.raises(Undecided) as info:
            rd_exact(petersen_graph(), 10, rules=CHAIN_RULES)
        partial = getattr(info.value, "partial", None)
        assert partial is not None
        assert (partial.lower, partial.upper) == (3, 4)

    def test_side_enumeration_spends_the_callers_budget(self):
        # the 26,291 cut sides of K2,14 crossed by at most 14 edges, listed
        # under a budget of their own, took over a second
        b = Budget(1000)
        with pytest.raises(Undecided):
            rd_exact(complete_multipartite([2, 14]), b, max_search_edges=100, rules=())
        assert b.spent == 1001

    @pytest.mark.parametrize(
        "rules,want",
        [
            ((), [0, 4_485, 7_267, 1_266, 143]),
            # the bounds spend the chromatic-index search: 250 nodes in the
            # fixed edge order, 133 fail-first
            (CHAIN_RULES, [133, 4_135, 3_853, 718, 85]),
        ],
    )
    def test_one_budget_pays_for_bounds_sides_search_and_check(
        self, monkeypatch, rules, want
    ):
        # rd_exact spends its budget on the bounds, the search nodes, each
        # side enumeration it makes and the check of the coloring it returns;
        # all but the search nodes are recounted on fresh budgets.  Petersen
        # under rules=() lists sides twice: its value 4 lies above d2 = 3
        listed = []
        real = rd._cut_sides

        def recorded(g, k, budget=None):
            listed.append(k)
            return real(g, k, budget)

        monkeypatch.setattr(rd, "_cut_sides", recorded)
        census = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
        totals = [0, 0, 0, 0, 0]  # bounds, search, sides, check; enumerations
        for g in census + [petersen_graph()]:
            listed.clear()
            b = Budget()
            res = rd_exact(g, b, max_search_edges=g.m, rules=rules)
            parts = [0, res.search_nodes, 0, 0, len(listed)]
            fresh = Budget()
            rd_bounds(g, fresh, rules)
            parts[0] = fresh.spent
            for k in listed:
                fresh = Budget()
                real(g, k, fresh)
                parts[2] += fresh.spent
            if res.coloring is not None:
                fresh = Budget()
                verify_rd_coloring(res.coloring, fresh)
                parts[3] = fresh.spent
            assert b.spent == sum(parts[:4]), g
            totals = [t + p for t, p in zip(totals, parts)]
        assert totals == want

    @pytest.mark.parametrize(
        "code", ["G`C^^{", "G_G}~{", "G`G]~{", "G_K}~{", "G`G}~{"]
    )
    def test_dense_order_eight_graphs_settle_quickly(self, code):
        # the index-order search spent 1.1-2.2 M nodes on each of these;
        # 6 is their lambda+ lower bound, met by a verified search coloring
        g = parse_graph6(code)
        res = rd_exact(g, Budget(10_000), max_search_edges=21, rules=CHAIN_RULES)
        assert res.value == 6 and res.coloring is not None
        assert res.bounds.lower == 6

    def test_note_mentions_refutations(self):
        res = rd_exact(petersen_graph(), rules=CHAIN_RULES)
        assert res.value == 4
        assert res.method == "search"
        assert "k=3" in res.note and "infeasible" in res.note


class TestBounds:
    def test_tree_pins_exactly(self):
        b = rd_bounds(star_graph(5))
        assert (b.lower, b.upper) == (1, 1)
        assert any(e.rule == "tree" and e.kind == "exact" for e in b.entries)
        assert b.exact_value() == 1

    def test_chain_rules_on_even_cycle(self):
        b = rd_bounds(cycle_graph(6), rules=CHAIN_RULES)
        assert (b.lower, b.upper) == (2, 2)
        used = {e.rule for e in b.entries if e.kind in ("lower", "upper")}
        assert "lambda_plus" in used and "chromatic_index" in used

    def test_expensive_rules_skipped_when_pinned(self):
        b = rd_bounds(complete_graph(6))
        assert b.exact_value() == 5
        skipped = {e.rule for e in b.entries if e.kind == "skipped"}
        assert "chromatic_index_minimal" in skipped

    def test_block_rule(self):
        b = rd_bounds(PAW, rules=("block_decomposition", "lambda_plus",
                                  "chromatic_index", "max_degree_plus_one",
                                  "order_minus_one", "tree", "cycle"))
        assert b.exact_value() == 2
        assert any(e.rule == "block_decomposition" for e in b.entries)

    def test_two_leaves_rule(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
        b = rd_bounds(g)
        assert any(e.rule == "two_leaves" and e.value == 3 for e in b.entries)
        assert b.exact_value() == 1  # it is a tree

    def test_one_near_universal_rule_on_petersen(self):
        b = rd_bounds(petersen_graph(), rules=("one_near_universal_vertex",))
        assert any(
            e.rule == "one_near_universal_vertex" and e.value == 7
            for e in b.entries
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ParameterError):
            rd_bounds(PAW, rules=("no_such_rule",))

    def test_statements_present(self):
        b = rd_bounds(petersen_graph())
        for e in b.entries:
            if e.kind in ("lower", "upper", "exact"):
                assert e.statement


def _old_multipartite_parts(g: Graph) -> list[int] | None:
    """The detection through complement components that the closed
    non-neighbourhood test replaced, copied verbatim from the code before
    it (renamed with an _old prefix)."""
    if g.n < 2:
        return None
    co = complement(g)
    sizes = []
    for mask in co.components():
        k = mask.bit_count()
        inner = sum(
            1 for a, b in co.edges if mask >> a & 1 and mask >> b & 1
        )
        if inner != k * (k - 1) // 2:
            return None
        sizes.append(k)
    if len(sizes) < 2:
        return None
    return sorted(sizes)


class TestMultipartiteDetection:
    def test_parts(self):
        assert multipartite_parts(complete_multipartite([1, 2, 2])) == [1, 2, 2]
        assert multipartite_parts(complete_graph(4)) == [1, 1, 1, 1]
        assert multipartite_parts(cycle_graph(5)) is None
        assert multipartite_parts(path_graph(3)) == [1, 2]

    def test_matches_complement_components_on_every_small_graph(self):
        """Disconnected graphs included; where the graph is multipartite,
        the part masks are the complement's components, so the smallest
        part that construct_rd_coloring extends at is the same."""
        found = 0
        for n in range(1, 8):
            for g in _all_graphs(n):
                parts = multipartite_parts(g)
                assert parts == _old_multipartite_parts(g), g
                if parts is not None:
                    found += 1
                    masks = _multipartite_masks(g)
                    assert sorted(masks) == sorted(complement(g).components())
        # one graph per partition of n into at least two parts, n = 2..7
        assert found == 1 + 2 + 4 + 6 + 10 + 14


class TestConstructions:
    @pytest.mark.parametrize(
        "g,method,colors",
        [
            (path_graph(5), "tree", 1),
            (cycle_graph(7), "cycle", 2),
            (PAW, "blocks", 2),
            (complete_graph(5), "multipartite-extension", 4),
            (complete_multipartite([1, 2, 2]), "multipartite-extension", 3),
        ],
    )
    def test_methods_and_palettes(self, g, method, colors):
        ec, got = construct_rd_coloring(g)
        assert got == method
        assert ec.num_colors == colors
        assert verify_rd_coloring(ec).ok

    def test_petersen_generic_path(self):
        ec, method = construct_rd_coloring(petersen_graph())
        assert method == "proper-coloring"
        assert ec.num_colors == 4
        assert verify_rd_coloring(ec).ok

    def test_construction_matches_exact_on_census(self, constructions):
        # the value comes from search alone; the construction overshoots it
        # only where the generic extension beats nothing better
        overshoot = {n: 0 for n in range(4, 8)}
        for g, in_census, new, _, _ in constructions:
            if in_census and g.n >= 4:
                ec = new.ec
                assert verify_rd_coloring(ec).ok
                value = rd_exact(g, rules=(), max_search_edges=21).value
                assert ec.num_colors >= value
                overshoot[g.n] += ec.num_colors != value
        assert overshoot == {4: 0, 5: 0, 6: 1, 7: 17}


class TestExtremalFamily:
    @pytest.mark.parametrize("n", [5, 7])
    def test_size_palette_and_connectivity(self, n):
        for k in range(1, n):
            g, ec = construct_extremal_graph(n, k)
            assert g.n == n
            assert 2 * g.m == (k + 1) * (n - 1)
            assert ec.num_colors == k
            assert verify_rd_coloring(ec).ok
            assert upper_edge_connectivity(g) >= k
            assert rd_exact(g, max_search_edges=25).value == k

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            construct_extremal_graph(6, 2)  # even order
        with pytest.raises(ParameterError):
            construct_extremal_graph(5, 0)
        with pytest.raises(ParameterError):
            construct_extremal_graph(5, 5)
        with pytest.raises(ParameterError):
            construct_extremal_graph(3, 1)


class TestSharpSplitFamily:
    def test_small_case(self):
        g = construct_ng_sharp_graph(6)
        assert (g.n, g.m) == (6, 8)
        assert rd_exact(g).value == 4
        assert rd_exact(complement(g)).value == 3

    @pytest.mark.parametrize("n", [7, 9, 12])
    def test_rules_pin_both_values(self, n):
        g = construct_ng_sharp_graph(n)
        assert g.m == 2 * n - 4
        res = rd_exact(g)
        cres = rd_exact(complement(g))
        assert (res.value, cres.value) == (n - 2, n - 3)
        assert res.method == "rules" and cres.method == "rules"

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            construct_ng_sharp_graph(5)


class TestCertificates:
    def test_every_pair_on_k4(self):
        res = rd_exact(complete_graph(4), rules=CHAIN_RULES)
        ec = res.coloring
        if ec is None:
            ec, _ = construct_rd_coloring(complete_graph(4))
        report = verify_rd_coloring(ec)
        assert report.ok
        assert len(report.certificates) == 6
        for cert in report.certificates:
            assert certificate_is_valid(ec, cert)
            text = certificate_to_text(cert)
            assert text.startswith(f"pair {cert.u} {cert.v} | side ")

    def test_tampered_certificate_rejected(self):
        ec, _ = construct_rd_coloring(PAW)
        report = verify_rd_coloring(ec)
        cert = report.certificates[0]
        import dataclasses

        bad = dataclasses.replace(cert, side=cert.side ^ (1 << 1) ^ (1 << 0))
        assert not certificate_is_valid(ec, bad)

    def test_find_rainbow_cut_prefers_stars(self):
        g = cycle_graph(6)
        ec = EdgeColoring(g, (1, 2, 1, 2, 1, 2))
        cert = find_rainbow_cut(ec, 0, 3)
        assert cert is not None and certificate_is_valid(ec, cert)

    def test_monochromatic_cycle_fails(self):
        g = cycle_graph(4)
        ec = EdgeColoring(g, (1, 1, 1, 1))
        report = verify_rd_coloring(ec)
        assert not report.ok
        assert report.failing_pair is not None

    def test_monochromatic_long_cycle_has_no_rainbow_cut(self):
        g = cycle_graph(25)
        ec = EdgeColoring(g, tuple([1] * 25))
        # a repeated color ends each branch, so 2^23 sides cost a few
        # hundred nodes
        assert find_rainbow_cut(ec, 0, 12, Budget(1000)) is None

    def test_enumeration_runs_under_the_budget(self):
        g = path_graph(8)  # 255 nodes list all 128 sides holding vertex 0
        with pytest.raises(Undecided):
            list(_bipartitions(g, 1, 0, range(g.m), g.m, Budget(5)))


class TestVerifyReport:
    def test_certificates_cover_all_pairs_in_order(self):
        ec, _ = construct_rd_coloring(cycle_graph(5))
        report = verify_rd_coloring(ec)
        got = [(c.u, c.v) for c in report.certificates]
        assert got == list(combinations(range(5), 2))


# ---------------------------------------------------------------------------
# The list form of the cut system that the bitmask form replaced, copied
# from the code before it (renamed with a _list prefix) as the cut system of
# the reference search below.  The one change: the sides now carry
# crossing-edge masks, read back into tuples of edge ids.

def _list_build_cut_system(g: Graph, k: int, wide: list[tuple[int, int]]):
    """The sides `_cut_sides(g, k)` and their crossing edge ids; the cut
    lists per edge; the vertex pairs and their separation masks.  The sides
    are those of `wide`, the sides of a level at or above k, that at most k
    edges cross: filtering keeps the mask order, so the system equals one
    built from `_cut_sides(g, k)` itself.  A pair's separation mask is the
    XOR of its two vertices' masks of the cuts whose side holds them."""
    n, m = g.n, g.m
    found = [
        (side, tuple(mask_vertices(xs))) for side, xs in wide if xs.bit_count() <= k
    ]
    sides = [side for side, _ in found]
    cross = [xs for _, xs in found]
    cuts_of_edge: list[list[int]] = [[] for _ in range(m)]
    holds = [0] * n
    for c, (side, xs) in enumerate(found):
        for i in xs:
            cuts_of_edge[i].append(c)
        for x in mask_vertices(side):
            holds[x] |= 1 << c
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pair_sep = [holds[u] ^ holds[v] for u, v in pairs]
    return sides, cross, cuts_of_edge, pairs, pair_sep


# ---------------------------------------------------------------------------
# The search whose per-cut loops and undo log the bitmask kernel replaced,
# copied verbatim from the code before it (renamed with a _list prefix), as
# the reference for verdicts, and on refuted levels for node counts, hardest
# pairs and budget points.  It tries colors in ascending order.  The one
# change: a tie between the fail counts of the hardest pairs goes to the
# smallest pair, as in the search, not to the pair that failed first.

def _list_rd_search(
    g: Graph,
    k: int,
    budget: Budget,
    wide: list[tuple[int, int]],
):
    """Search for a rainbow disconnection coloring with colors 1..k.

    Returns (coloring or None, nodes expanded, hardest pair or None).
    The cut system is filtered from the sides `wide` of a level at or
    above k (see `_list_build_cut_system`).
    Prunes through cut viability: a bipartition cut dies once two of its
    crossing edges share a color, and a branch dies once some vertex pair
    has no live cut left.  Only the pairs that a dying cut separates are
    tested, read off the cut's mask of split pairs, in ascending pair order.

    Edges are colored in a fail-first order fixed once per branch: the
    forced star edges, then repeatedly the edge that most of the placed
    edges' small cuts hold, ties broken by its own number of small cuts,
    then by the lower edge id.
    """
    n, m = g.n, g.m
    sides, cross, cuts_of_edge, pairs, pair_sep = _list_build_cut_system(
        g, k, wide
    )
    ncuts = len(sides)
    fails: dict[Edge, int] = {}
    nodes = 0

    for p, mask in enumerate(pair_sep):
        if mask == 0:
            return None, 0, pairs[p]

    # cut c splits pair p when exactly one of its vertices is on c's side
    at = [0] * n
    for p, (u, v) in enumerate(pairs):
        at[u] |= 1 << p
        at[v] |= 1 << p
    splits = []
    for side in sides:
        mask = 0
        for x in mask_vertices(side):
            mask ^= at[x]
        splits.append(mask)

    # when every small cut is a vertex star in a k-regular graph, any valid
    # coloring makes all stars rainbow except possibly one, so the star of
    # vertex 0 or of vertex 1 can be fixed to colors 1..k outright
    degs = g.degrees
    star_break = (
        n >= 3
        and min(degs) == max(degs) == k
        and all(s.bit_count() in (1, n - 1) for s in sides)
    )

    def fail_first(forced: dict[int, int]) -> list[int]:
        order: list[int] = []
        shared = [0] * m  # per edge: the placed edges' small cuts holding it

        def place(e: int) -> None:
            order.append(e)
            for c in cuts_of_edge[e]:
                for i in cross[c]:
                    shared[i] += 1

        for e in forced:
            place(e)
        rest = [i for i in range(m) if i not in forced]
        while rest:
            e = max(rest, key=lambda i: (shared[i], len(cuts_of_edge[i]), -i))
            rest.remove(e)
            place(e)
        return order

    def run(forced: dict[int, int]):
        nonlocal nodes
        used = [0] * ncuts
        dead = [False] * ncuts
        alive = (1 << ncuts) - 1
        colors = [0] * m

        def try_color(e: int, col: int):
            nonlocal alive
            log: list[tuple[int, int]] = []
            split = 0
            bit = 1 << (col - 1)
            for c in cuts_of_edge[e]:
                if dead[c]:
                    continue
                if used[c] & bit:
                    dead[c] = True
                    alive &= ~(1 << c)
                    split |= splits[c]
                    log.append((c, 0))
                else:
                    used[c] |= bit
                    log.append((c, bit))
            while split:
                low = split & -split
                p = low.bit_length() - 1
                if not pair_sep[p] & alive:
                    pr = pairs[p]
                    fails[pr] = fails.get(pr, 0) + 1
                    undo(e, log)
                    return None
                split ^= low
            colors[e] = col
            return log

        def undo(e: int, log) -> None:
            nonlocal alive
            colors[e] = 0
            for c, ubit in reversed(log):
                if ubit:
                    used[c] ^= ubit
                else:
                    dead[c] = False
                    alive |= 1 << c

        order = fail_first(forced)

        def rec(pos: int, cmax: int) -> bool:
            nonlocal nodes
            if pos == len(order):
                return True
            e = order[pos]
            top = min(k, cmax + 1)
            for col in (forced[e],) if e in forced else range(1, top + 1):
                budget.spend()
                nodes += 1
                log = try_color(e, col)
                if log is None:
                    continue
                if rec(pos + 1, max(cmax, col)):
                    return True
                undo(e, log)
            return False

        if rec(0, 0):
            return EdgeColoring(g, tuple(colors))
        return None

    branches: list[dict[int, int]]
    if star_break:
        branches = []
        for anchor in (0, 1):
            star = [i for i, e in enumerate(g.edges) if anchor in e]
            branches.append({e: c for c, e in enumerate(star, start=1)})
    else:
        branches = [{}]

    for forced in branches:
        found = run(forced)
        if found is not None:
            if not verify_rd_coloring(found).ok:
                raise RdError("search produced a coloring its verifier rejects")
            return found, nodes, None
    worst = min(fails, key=lambda pr: (-fails[pr], pr)) if fails else None
    return None, nodes, worst


def _star_break_holds(g: Graph, k: int, wide) -> bool:
    degs = g.degrees
    return (
        g.n >= 3
        and min(degs) == max(degs) == k
        and all(
            s.bit_count() in (1, g.n - 1) for s, xs in wide if xs.bit_count() <= k
        )
    )


def _spent_at_undecided(call, limit: int) -> int:
    """The nodes spent when call(Budget(limit)) raises Undecided."""
    budget = Budget(limit)
    with pytest.raises(Undecided):
        call(budget)
    return budget.spent


def _refutation_graphs() -> list[Graph]:
    """Graphs whose search backtracks: no census graph of order up to 8
    refutes a level below the root.  Four seeded relabelings of Petersen,
    which refute k = 3 in 3,255 to 3,543 nodes; the third has two hardest
    pairs of equal fail count.  Petersen with a pendant vertex on vertex 0,
    refuted at k = 3 in 2,257 nodes with no star break (it is not regular).
    Petersen with edge (0, 1) subdivided, feasible at k = 3 after 1,793."""
    p = petersen_graph()
    rng = random.Random(7)
    out = []
    for _ in range(4):
        perm = list(range(10))
        rng.shuffle(perm)
        out.append(Graph.from_edges(10, [(perm[u], perm[v]) for u, v in p.edges]))
    out.append(Graph.from_edges(11, p.edges + ((0, 10),)))
    out.append(Graph.from_edges(11, [e for e in p.edges if e != (0, 1)] + [(0, 10), (1, 10)]))
    return out


def test_search_matches_the_list_form_search():
    # the reference tries colors in ascending order and the search the least
    # constraining first, so they agree on every verdict, and on the nodes,
    # hardest pair and budget points of a refutation, which visits the same
    # tree in any order of siblings (the fail counts are the same, and ties
    # go to the smallest pair); a coloring found is checked on its own
    levels = {True: 0, False: 0}
    star_breaks = budget_levels = 0
    for g in _search7_graphs() + _refutation_graphs():
        levels_of_g = range(1, min(max(g.degrees) + 1, g.n - 1))
        wide = _cut_sides(g, levels_of_g[-1]) if levels_of_g else []
        system = _build_cut_system(g, wide)
        for k in levels_of_g:
            budget, check = Budget(), Budget()
            found, nodes, worst = _rd_search(g, k, budget, system)
            list_budget = Budget()
            listed, list_nodes, list_worst = _list_rd_search(g, k, list_budget, wide)
            assert (found is None) == (listed is None), (g, k)
            levels[found is not None] += 1
            star_breaks += _star_break_holds(g, k, wide)
            if found is not None:
                verify_rd_coloring(found, check)
                assert budget.spent == nodes + check.spent  # the check is charged
                assert worst is None and found.max_color <= k, (g, k)
                # a rainbow star separates its vertex from every other one;
                # the brute-force oracle settles the pairs of two clashing ends
                colors = found.colors
                stars = [
                    [c for e, c in zip(g.edges, colors) if x in e] for x in range(g.n)
                ]
                rainbow = [len(star) == len(set(star)) for star in stars]
                assert all(
                    rainbow[u] or rainbow[v] or has_rainbow_cut_brute(g, colors, u, v)
                    for u, v in combinations(range(g.n), 2)
                ), (g, k)
                continue
            assert (nodes, worst) == (list_nodes, list_worst), (g, k)
            assert budget.spent == list_budget.spent == nodes, (g, k)
            if nodes > 3:
                budget_levels += 1
                for limit in (1, nodes // 2, nodes - 1):
                    spent = _spent_at_undecided(
                        lambda b: _rd_search(g, k, b, system), limit
                    )
                    assert spent == _spent_at_undecided(
                        lambda b: _list_rd_search(g, k, b, wide), limit
                    ), (g, k, limit)
    assert min(levels.values()) > 0 and star_breaks > 0 and budget_levels > 0, levels


# ---------------------------------------------------------------------------
# The per-level loop of rd_exact that one enumeration of the sides replaced,
# copied verbatim from the code before it (renamed with a _per_level
# prefix): `_rd_search(g, k, b)` builds a fresh cut system at every level.
# The one change: it builds that system itself, as `_rd_search` now takes a
# built one.

def _per_level_rd_exact(
    g: Graph,
    budget: Budget | int | None = None,
    max_search_edges: int = DEFAULT_SEARCH_EDGE_CAP,
    rules=None,
) -> RdResult:
    """The exact rainbow disconnection number.

    Bounds come first; if they pin the value, no search runs.  Otherwise
    every candidate below the certified upper bound is searched in
    ascending order, so either a verified optimal coloring is found or
    the upper bound is confirmed as the value (its rule is constructive,
    so no search at the top is needed).  The search path refuses graphs
    with more than `max_search_edges` edges.
    """
    b = as_budget(budget)
    bounds = rd_bounds(g, b, rules)
    if bounds.lower == bounds.upper:
        return RdResult(
            bounds.lower, bounds, "rules", _pinning_rule(bounds), None, 0, None
        )
    if g.m > max_search_edges:
        raise SizeError(
            f"exact search over {g.m} edges exceeds the cap of "
            f"{max_search_edges}; raise max_search_edges to allow it"
        )
    notes = []
    total_nodes = 0
    for k in range(bounds.lower, bounds.upper):
        try:
            coloring, nodes, worst = _rd_search(
                g, k, b, _build_cut_system(g, _cut_sides(g, k, b))
            )
        except Undecided as exc:
            exc.partial = bounds
            raise
        total_nodes += nodes
        if coloring is not None:
            notes.append(f"k={k}: feasible after {nodes} nodes")
            return RdResult(
                k, bounds, "search", None, coloring, total_nodes, "; ".join(notes)
            )
        extra = f", hardest pair {worst}" if worst is not None else ""
        notes.append(f"k={k}: infeasible after {nodes} nodes{extra}")
    top_rules = sorted(
        e.rule
        for e in bounds.entries
        if e.kind in ("upper", "exact") and e.value == bounds.upper
    ) or ["baseline"]
    notes.append(f"k={bounds.upper}: certified by {', '.join(top_rules)}")
    return RdResult(
        bounds.upper, bounds, "search", None, None, total_nodes, "; ".join(notes)
    )


def test_one_enumeration_matches_the_per_level_loop():
    for g in _search7_graphs():
        for rules in ((), CHAIN_RULES):
            got = rd_exact(g, rules=rules, max_search_edges=g.m)
            want = _per_level_rd_exact(g, rules=rules, max_search_edges=g.m)
            assert got == want, (g, rules)


def test_search7_totals_stay_the_same():
    # the inputs and the call of the search7 benchmark workload; node counts
    # change only with the pruning, the edge order or the color order, and
    # only on purpose
    nodes = spent = 0
    for g in _search7_graphs():
        b = Budget()
        nodes += rd_exact(g, b, rules=(), max_search_edges=max(21, g.m)).search_nodes
        spent += b.spent
    assert (nodes, spent) == (21_405, 125_679)


def test_sides_listed_once_at_the_first_level_when_lambda_plus_is_in(monkeypatch):
    listed = 0

    def counting(*args):
        nonlocal listed
        for side in _bipartitions(*args):
            listed += 1
            yield side

    monkeypatch.setattr(rd, "_bipartitions", counting)
    for g in _census7():
        rd_exact(g, rules=CHAIN_RULES, max_search_edges=g.m)
    # 7,607 cut sides, plus 902 sides from the certificate searches that
    # verify each coloring found; enumerating at the second-largest degree
    # even when the bounds hold λ⁺ lists 8,243 cut sides
    assert listed == 8_509


# ---------------------------------------------------------------------------
# The certificate search before the stars were cached on the coloring, copied
# verbatim from the code before it (renamed with an _old prefix): each pair
# scans all edges to test the star of u, then the complement of v's star.

def _old_find_rainbow_cut(
    ec: EdgeColoring, u: int, v: int, budget: Budget | int | None = None
) -> RainbowCutCertificate | None:
    """A rainbow edge cut separating u from v under the given coloring.

    If an arbitrary edge set works, the boundary of the u-component after
    its removal is a bipartition cut contained in it, so searching
    bipartitions is complete.  The star of u and then the complement of the
    star of v are tried first; after that, the first rainbow side in
    increasing mask order, found by a pruned enumeration that spends
    `budget` nodes (Undecided when it runs out).
    """
    g = ec.graph
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertices must lie in 0..{g.n - 1}")
    if u == v:
        raise ParameterError("a cut certificate needs two distinct vertices")

    def attempt(side: int) -> RainbowCutCertificate | None:
        seen: set[int] = set()
        crossing = []
        for i, (a, b) in enumerate(g.edges):
            if (side >> a & 1) != (side >> b & 1):
                c = ec.colors[i]
                if c in seen:
                    return None
                seen.add(c)
                crossing.append((g.edges[i], c))
        return RainbowCutCertificate(u, v, side, tuple(crossing))

    got = attempt(1 << u)
    if got is None:
        full = (1 << g.n) - 1
        got = attempt(full ^ (1 << v))
    if got is not None:
        return got
    b = as_budget(budget)
    for side, _ in _bipartitions(g, 1 << u, 1 << v, ec.colors, g.m, b):
        return attempt(side)
    return None


def _old_verify_rd_coloring(
    ec: EdgeColoring, budget: Budget | int | None = None
) -> VerificationReport:
    """Check every vertex pair for a rainbow cut; certify or name a failure.
    The certificate searches of all pairs share one node `budget`."""
    g = ec.graph
    b = as_budget(budget)
    certs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cert = _old_find_rainbow_cut(ec, u, v, b)
            if cert is None:
                return VerificationReport(False, tuple(certs), (u, v))
            certs.append(cert)
    return VerificationReport(True, tuple(certs), None)


def grid_graph(rows: int, cols: int) -> Graph:
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1) for r, c in cells if c + 1 < cols]
    edges += [(r * cols + c, (r + 1) * cols + c) for r, c in cells if r + 1 < rows]
    return Graph.from_edges(rows * cols, edges)


@pytest.fixture(scope="module")
def verify_colorings() -> list[EdgeColoring]:
    """Colorings of the census of orders 2..7: the constructed one, and
    seeded random ones with palettes below λ⁺, above the value, Δ and 3;
    then the failing 2-colorings of three grids."""
    rng = random.Random(20261019)
    palette_rng = random.Random(20261020)
    colorings = []
    for g in _census7():
        colorings.append(construct_rd_coloring(g)[0])
        # below lambda+ no coloring is valid; above min(max degree + 1,
        # n - 1) the palette exceeds the value
        low = upper_edge_connectivity(g) - 1
        high = min(max(g.degrees) + 1, g.n - 1) + 1
        for k in (low, high):
            if k >= 1:
                colors = tuple(rng.randint(1, k) for _ in g.edges)
                colorings.append(EdgeColoring(g, colors))
        for k in (max(g.degrees), 3):
            colors = tuple(palette_rng.randint(1, k) for _ in g.edges)
            colorings.append(EdgeColoring(g, colors))
    for rows, cols in ((4, 4), (3, 6), (4, 5)):
        # rows one color, columns the other: no 2-coloring of a grid is valid
        grid = grid_graph(rows, cols)
        colorings.append(
            EdgeColoring(grid, tuple(1 if b == a + 1 else 2 for a, b in grid.edges))
        )
    return colorings


def test_cached_stars_match_the_old_attempts(verify_colorings):
    # the same report and the same nodes spent, to the end or to the point a
    # smaller budget runs out
    verdicts = {True: 0, False: 0}
    limited = 0
    for ec in verify_colorings:
        new_budget, old_budget = Budget(), Budget()
        got = verify_rd_coloring(ec, new_budget)
        assert got == _old_verify_rd_coloring(ec, old_budget), ec
        spent = old_budget.spent
        assert new_budget.spent == spent, ec
        verdicts[got.ok] += 1
        for limit in sorted({1, spent // 2, spent - 1} & set(range(1, spent))):
            assert _spent_at_undecided(lambda b: verify_rd_coloring(ec, b), limit) == (
                _spent_at_undecided(lambda b: _old_verify_rd_coloring(ec, b), limit)
            ), (ec, limit)
            limited += 1
    assert min(verdicts.values()) > 0 and limited > 0, verdicts
    assert all(not verify_rd_coloring(ec).ok for ec in verify_colorings[-3:])


def test_find_rainbow_cut_matches_the_old_search_pair_by_pair(verify_colorings):
    # each pair alone, in both orders on every fifth coloring; the grids are
    # left out, as most of their pairs walk thousands of sides
    found = {"cut": 0, "none": 0}
    for i, ec in enumerate(verify_colorings[:-3]):
        pairs = combinations if i % 5 else permutations
        for u, v in pairs(range(ec.graph.n), 2):
            new_budget, old_budget = Budget(), Budget()
            cert = find_rainbow_cut(ec, u, v, new_budget)
            assert cert == _old_find_rainbow_cut(ec, u, v, old_budget), (ec, u, v)
            assert new_budget.spent == old_budget.spent, (ec, u, v)
            found["none" if cert is None else "cut"] += 1
    assert min(found.values()) > 0, found


def test_search_guard_rejects_a_coloring_the_cuts_let_through():
    # with no crossing edges in its system no cut ever dies, so at k = 1 the
    # search takes color 1 on every edge, which leaves the pair (0, 1) of C4
    # uncut
    g = cycle_graph(4)
    blind = _build_cut_system(g, [(side, 0) for side, _ in _cut_sides(g, 2)])
    with pytest.raises(RdError, match=r"\(0, 1\)"):
        _rd_search(g, 1, Budget(), blind)


def test_colorings_of_one_graph_keep_their_own_stars():
    g = cycle_graph(4)
    mono = EdgeColoring(g, (1, 1, 1, 1))
    proper = EdgeColoring(g, (1, 2, 2, 1))
    assert mono.clashes == 0b1111
    assert proper.clashes == 0
    assert not verify_rd_coloring(mono).ok
    report = verify_rd_coloring(proper)
    assert report.ok and report.certificates[0].side == 1
    assert report.certificates[0].crossing == (((0, 1), 1), ((0, 3), 2))
    assert mono.clashes == 0b1111
    assert EdgeColoring(g, (1, 2, 1, 2)).clashes == 0b1010


# ---------------------------------------------------------------------------
# construct_rd_coloring before the degree floor, copied verbatim from the
# code before it (renamed with an _old prefix, module names qualified with
# `rd.`), except that it appends (graph, u, t_u) to `seen` for every vertex
# it evaluates, and that `chromatic_coloring`, which `rd` no longer imports,
# comes from `rdnum.coloring`.

def _old_construct_rd_coloring(
    g: Graph, budget: Budget | int | None, seen: list
) -> tuple[EdgeColoring, str]:
    rd._require_valid(g)
    b = as_budget(budget)

    if rd.is_tree(g):
        return EdgeColoring(g, (1,) * g.m), "tree"

    if rd.is_cycle_graph(g):
        colors = [1 if 0 in e else 2 for e in g.edges]
        return EdgeColoring(g, tuple(colors)), "cycle"

    parts = rd.blocks(g)
    if len(parts) > 1:
        colors = [0] * g.m
        for blk in parts:
            rd._lift(
                g, blk.vertices,
                _old_construct_rd_coloring(blk.graph, b, seen)[0], colors,
            )
        return EdgeColoring(g, tuple(colors)), "blocks"

    multipartite = rd.multipartite_rd(g)
    if multipartite is not None:
        _, smallest = min((p.bit_count(), p) for p in _multipartite_masks(g))
        u = (smallest & -smallest).bit_length() - 1
        ec = rd._extend_at_vertex(g, u, multipartite[0], b)
        return ec, "multipartite-extension"

    base = rd.classify_chromatic(g, b)
    best_u, best_t = None, base.chromatic_index
    for u in range(g.n):
        keep = [x for x in range(g.n) if x != u]
        h, _ = g.induced_subgraph(keep)
        cv = rd.classify_chromatic(h, b)
        t_u = max(
            cv.chromatic_index,
            max(g.degree(x) for x in g.neighbors(u)),
        )
        seen.append((g, u, t_u))
        if t_u < best_t:
            best_u, best_t = u, t_u
    if best_u is not None:
        return rd._extend_at_vertex(g, best_u, best_t, b), "star-extension"
    _, ec = chromatic_coloring(g, b)
    return ec, "proper-coloring"


class _Built(NamedTuple):
    ec: EdgeColoring
    method: str
    spent: int
    classify_calls: int


@pytest.fixture(scope="module")
def constructions():
    """(graph, in the census, the degree-floor route's _Built, the
    reference's _Built, the reference's (graph, u, t_u)) over the search7
    inputs and C16..C20; only the census graphs have at most 7 vertices."""
    calls = [0]
    classify = rd.classify_chromatic

    def counting(*args, **kwargs):
        calls[0] += 1
        return classify(*args, **kwargs)

    def build(construct, g, *seen):
        budget, calls[0] = Budget(), 0
        ec, method = construct(g, budget, *seen)
        return _Built(ec, method, budget.spent, calls[0])

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd, "classify_chromatic", counting)
        for g in _search7_graphs() + [cycle_graph(n) for n in range(16, 21)]:
            seen = []
            new = build(construct_rd_coloring, g)
            old = build(_old_construct_rd_coloring, g, seen)
            out.append((g, g.n <= 7, new, old, seen))
    return out


def test_degree_floor_matches_the_per_vertex_loop(constructions):
    methods = {}
    evaluated = saved = 0
    for g, _, new, old, seen in constructions:
        assert (new.ec.colors, new.method) == (old.ec.colors, old.method), g
        assert new.spent <= old.spent, g
        saved += new.spent < old.spent
        for h, u, t_u in seen:
            # the floor itself: t_u is at least every other vertex's degree
            assert t_u >= max(h.degrees[:u] + h.degrees[u + 1:]), (h, u)
            evaluated += 1
        methods[new.method] = methods.get(new.method, 0) + 1
    assert methods["star-extension"] > 0 and methods["proper-coloring"] > 0, methods
    assert evaluated > 0 and saved > 0


def test_degree_floor_skips_classifications(constructions):
    order7 = [
        (new.classify_calls, old.classify_calls)
        for g, in_census, new, old, _ in constructions
        if in_census and g.n == 7
    ]
    assert len(order7) == 853
    assert tuple(map(sum, zip(*order7))) == (1000, 5107)
