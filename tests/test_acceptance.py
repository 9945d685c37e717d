"""Acceptance suite.

One test per acceptance criterion, each ending in a single printed
pass line.  Values feeding the checks come from routes independent of the
formula under test: the `pure_rd_census` fixture computes every value by
bounded search alone (no bound rules), chain checks recompute the
chromatic index by exact search, and the brute-force oracles live in
tests/_oracles.py.
"""

import random
from itertools import combinations

from rdnum import (
    CHAIN_RULES,
    EdgeColoring,
    bipartition,
    blocks,
    chromatic_coloring,
    chromatic_index_exact,
    classify_chromatic,
    color_critical_value,
    complement,
    complete_graph,
    complete_multipartite,
    construct_extremal_graph,
    construct_ng_sharp_graph,
    cycle_graph,
    edge_connectivity,
    enumerate_connected_graphs,
    find_rainbow_cut,
    fournier_class1_test,
    is_chromatic_index_minimal,
    is_overfull,
    local_edge_connectivity,
    path_graph,
    petersen_graph,
    rd_bounds,
    rd_exact,
    regular_even_class1_test,
    regular_parity_class2_test,
    upper_edge_connectivity,
    verify_rd_coloring,
)
from rdnum.survey import canonical_form

from _oracles import bipartition_min_cut, has_rainbow_cut_brute
from conftest import record_acceptance
from test_graphs import random_graph


def _chain_value(g, cap=15):
    return rd_exact(g, rules=CHAIN_RULES, max_search_edges=cap).value


def test_criterion_1_family_formulas():
    for n in range(2, 9):
        assert _chain_value(path_graph(n)) == 1, f"path on {n}"
    for n in range(3, 9):
        assert _chain_value(cycle_graph(n)) == 2, f"cycle on {n}"
    for n in range(2, 6):
        assert _chain_value(complete_graph(n)) == n - 1, f"complete on {n}"
    # order six: the bounds pin without any search
    k6 = complete_graph(6)
    b = rd_bounds(k6, rules=CHAIN_RULES)
    assert b.exact_value() == 5
    assert upper_edge_connectivity(k6) == 5
    assert classify_chromatic(k6).chromatic_index == 5
    record_acceptance("CRITERION 1 family formulas (paths, cycles, completes): PASS")


def _part_lists(total):
    def gen(left, maxpart):
        if left == 0:
            yield ()
            return
        for first in range(min(left, maxpart), 0, -1):
            for rest in gen(left - first, first):
                yield (first,) + rest

    for parts in gen(total, total):
        if len(parts) >= 2:
            yield tuple(sorted(parts))


def test_criterion_2_multipartite_formula():
    named = {
        (1, 1, 2): 3,
        (2, 2): 2,
        (1, 2, 2): 3,
        (1, 1, 1, 2): 4,
    }
    checked = 0
    for n in range(2, 8):
        for parts in _part_lists(n):
            g = complete_multipartite(list(parts))
            want = n - parts[1] if parts[0] == 1 else n - parts[0]
            got = rd_exact(g, rules=CHAIN_RULES, max_search_edges=21).value
            assert got == want, f"parts {parts}: got {got}, want {want}"
            if parts in named:
                assert got == named[parts]
            checked += 1
    assert checked == 37
    record_acceptance(f"CRITERION 2 multipartite formula on {checked} part lists: PASS")


def test_criterion_3_petersen():
    g = petersen_graph()
    # constructive upper bound: a proper coloring on four colors is a
    # valid disconnection coloring
    cv, proper = chromatic_coloring(g)
    assert cv.chromatic_index == 4
    assert proper.is_proper() and proper.num_colors == 4
    assert verify_rd_coloring(proper).ok
    # exhaustive refutation of three colors by the symmetry-broken search
    res = rd_exact(g, rules=CHAIN_RULES)
    assert res.value == 4
    assert res.method == "search"
    assert "k=3" in res.note and "infeasible" in res.note
    assert res.search_nodes < 100_000
    record_acceptance(f"CRITERION 3 Petersen value 4 (refuted k=3 in "
          f"{res.search_nodes} nodes): PASS")


def test_criterion_4_extremal_construction(pure_rd_census):
    for n in (5, 7, 9):
        for k in range(1, n):
            g, ec = construct_extremal_graph(n, k)
            assert 2 * g.m == (k + 1) * (n - 1), (n, k)
            assert ec.num_colors == k, (n, k)
            assert verify_rd_coloring(ec).ok, (n, k)
            # k colors suffice and some pair needs k: the value is pinned
            assert upper_edge_connectivity(g) >= k, (n, k)
            assert rd_exact(g, max_search_edges=40).value == k, (n, k)
    # exhaustive maximality at order five: no connected graph beats the
    # construction's edge count for its value
    seen = 0
    for key, (g, value) in pure_rd_census.items():
        if g.n != 5:
            continue
        seen += 1
        assert 2 * g.m <= (value + 1) * (g.n - 1), (key, value)
    assert seen == 21
    record_acceptance("CRITERION 4 extremal family (n in 5,7,9; maximal at n=5): PASS")


def test_criterion_5_complement_window(pure_rd_census):
    checked = 0
    for key, (g, value) in pure_rd_census.items():
        co = complement(g)
        if not co.is_connected() or g.n < 4:
            continue
        co_value = pure_rd_census[canonical_form(co)][1]
        n = g.n
        s, p = value + co_value, value * co_value
        assert n - 2 <= s <= 2 * n - 5, (key, s)
        assert n - 3 <= p <= (n - 2) * (n - 3), (key, p)
        checked += 1
    assert checked == 77  # 1 + 8 + 68 graphs at orders 4, 5, 6
    # the path on four vertices meets both lower bounds
    p4 = path_graph(4)
    a = pure_rd_census[canonical_form(p4)][1]
    b = pure_rd_census[canonical_form(complement(p4))][1]
    assert a + b == 2 and a * b == 1
    # the split construction on six vertices meets both upper bounds
    g6 = construct_ng_sharp_graph(6)
    va = rd_exact(g6).value
    vb = rd_exact(complement(g6)).value
    assert va + vb == 7 and va * vb == 12
    record_acceptance(f"CRITERION 5 complement sum/product window on {checked} "
          "qualifying graphs, sharp at both ends: PASS")


def test_criterion_6_chain_invariant(pure_rd_census):
    for key, (g, value) in pure_rd_census.items():
        lam = edge_connectivity(g)
        lamp = upper_edge_connectivity(g)
        chi = chromatic_index_exact(g)
        delta = max(g.degrees)
        assert lam <= lamp <= value <= chi <= delta + 1, (key, lam, lamp,
                                                          value, chi)
    record_acceptance(f"CRITERION 6 chain inequality on {len(pure_rd_census)} "
          "connected graphs: PASS")


def test_criterion_7_structural_lemmas(pure_rd_census):
    applied = {
        "blocks": 0, "universal": 0, "leaves": 0, "low_degree": 0,
        "average": 0, "regular": 0, "minimal": 0, "critical": 0,
        "regular_bipartite": 0, "near_complete": 0,
    }
    for key, (g, value) in pure_rd_census.items():
        n = g.n
        degs = g.degrees
        delta = max(degs)

        parts = blocks(g)
        if len(parts) >= 2:
            applied["blocks"] += 1
            vals = [pure_rd_census[canonical_form(b.graph)][1] for b in parts]
            assert value == max(vals), key

        applied["universal"] += 1
        two_universal = sum(1 for d in degs if d == n - 1) >= 2
        assert two_universal == (value == n - 1), key

        if n >= 4 and sum(1 for d in degs if d == 1) >= 2:
            applied["leaves"] += 1
            assert value <= n - 3, key

        if sum(1 for d in degs if d >= n - 2) <= 1:
            applied["low_degree"] += 1
            assert value <= n - 3, key

        applied["average"] += 1
        assert value >= 2 * g.m // n, key

        if min(degs) == delta:
            applied["regular"] += 1
            assert delta <= value <= delta + 1, key

        if is_chromatic_index_minimal(g):
            applied["minimal"] += 1
            assert value <= delta, key

        crit = color_critical_value(g)
        if crit is not None and crit >= 2:
            applied["critical"] += 1
            assert value >= crit - 1, key

        if min(degs) == delta and delta >= 1 and bipartition(g) is not None:
            applied["regular_bipartite"] += 1
            assert value == delta, key

        if min(degs) == delta and delta >= max(1, n - 4):
            applied["near_complete"] += 1
            assert value == delta, key

    assert all(count > 0 for count in applied.values()), applied
    record_acceptance(f"CRITERION 7 structural lemmas, zero violations "
          f"(hypothesis counts {applied}): PASS")


def test_criterion_8_oracle_equivalences(pure_rd_census):
    # max-flow local connectivity equals the bipartition minimum
    pair_checks = 0
    for key, (g, _) in pure_rd_census.items():
        for u, v in combinations(range(g.n), 2):
            got = local_edge_connectivity(g, u, v)
            assert got == bipartition_min_cut(g, u, v), (key, u, v)
            pair_checks += 1
    rng = random.Random(88)
    for _ in range(20):  # a few possibly-disconnected extras
        g = random_graph(rng, rng.randint(2, 6), p=0.4)
        for u, v in combinations(range(g.n), 2):
            got = local_edge_connectivity(g, u, v)
            assert got == bipartition_min_cut(g, u, v)
            pair_checks += 1

    # rainbow cut search equals the one-edge-per-color brute force
    small = [g for _, (g, _) in pure_rd_census.items() if g.n <= 5]
    rng = random.Random(20250814)
    colorings = 0
    while colorings < 200:
        g = rng.choice(small)
        k = rng.randint(1, max(1, g.m))
        colors = tuple(rng.randint(1, k) for _ in range(g.m))
        ec = EdgeColoring(g, colors)
        for u, v in combinations(range(g.n), 2):
            cert = find_rainbow_cut(ec, u, v)
            assert (cert is not None) == has_rainbow_cut_brute(
                g, colors, u, v
            ), (g, colors, u, v)
        colorings += 1

    # class-one shortcuts never contradict the exact solver
    fired = 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            chi = chromatic_index_exact(g)
            assert classify_chromatic(g).chromatic_index == chi
            d = max(g.degrees)
            if fournier_class1_test(g):
                fired += 1
                assert chi == d, g
            if regular_even_class1_test(g):
                fired += 1
                assert chi == d, g
            if is_overfull(g):
                fired += 1
                assert chi == d + 1, g
            if regular_parity_class2_test(g):
                fired += 1
                assert chi == d + 1, g
    assert fired > 500
    record_acceptance(f"CRITERION 8 oracle equivalences ({pair_checks} pair cuts, "
          f"200 colorings, {fired} class shortcuts): PASS")
