import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnum import (
    Budget,
    ClassVerdict,
    EdgeColoring,
    FormatError,
    Graph,
    ParameterError,
    RdError,
    Undecided,
    as_budget,
    bipartite_color,
    bipartition,
    chromatic_coloring,
    chromatic_index_exact,
    chromatic_number,
    classify_chromatic,
    color_critical_value,
    complete_graph,
    complete_multipartite,
    construct_rd_coloring,
    cycle_graph,
    fan_rotation_color,
    find_edge_coloring,
    fournier_class1_test,
    is_chromatic_index_minimal,
    is_complete,
    is_overfull,
    parse_graph6,
    path_graph,
    petersen_graph,
    read_coloring,
    regular_even_class1_test,
    regular_parity_class2_test,
    round_robin_rounds,
    star_graph,
    structural_class,
    write_coloring,
)
from rdnum import coloring
from rdnum.coloring import _first_free
from rdnum.graphs import mask_vertices
from rdnum.survey import _all_graphs, enumerate_connected_graphs

from _oracles import chromatic_index_brute, chromatic_number_brute
from test_bipartitions import generalized_petersen
from test_graphs import random_graph


class TestEdgeColoring:
    def test_accessors(self):
        g = path_graph(3)
        ec = EdgeColoring(g, (1, 2))
        assert ec.color_of(1, 0) == 1
        assert ec.colors_at(1) == {1, 2}
        assert ec.num_colors == 2 and ec.max_color == 2
        assert ec.is_proper()
        assert not EdgeColoring(g, (1, 1)).is_proper()

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            EdgeColoring(g, (1,))
        with pytest.raises(ParameterError):
            EdgeColoring(g, (1, 0))

    def test_color_of_a_non_edge_names_the_pair(self):
        ec = EdgeColoring(path_graph(3), (1, 2))
        for u, v in ((0, 2), (2, 0), (1, 1), (0, 7)):
            with pytest.raises(ParameterError, match=rf"\({u}, {v}\) is not an edge"):
                ec.color_of(u, v)

    def test_serialization_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        ec = EdgeColoring(g, (1, 2, 1))
        assert read_coloring(write_coloring(ec)) == ec

    def test_read_errors(self):
        with pytest.raises(FormatError, match="line 1"):
            read_coloring("")
        with pytest.raises(FormatError, match="line 2"):
            read_coloring("2 1 1\n0 1\n")
        with pytest.raises(FormatError, match="color"):
            read_coloring("2 1 1\n0 1 2\n")


class TestBipartite:
    def test_small(self):
        ec = bipartite_color(star_graph(6))
        assert ec.is_proper() and ec.max_color == 5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers())
    def test_random_bipartite(self, a, b, seed):
        rng = random.Random(seed)
        edges = [
            (u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.6
        ]
        g = Graph.from_edges(a + b, edges)
        ec = bipartite_color(g)
        assert ec.is_proper()
        assert ec.max_color <= max(g.degrees, default=0)


class TestFanRotation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers())
    def test_proper_within_one_of_max_degree(self, n, seed):
        g = random_graph(random.Random(seed), n, p=0.55)
        ec = fan_rotation_color(g)
        assert ec.is_proper()
        assert ec.max_color <= max(g.degrees) + 1 if g.m else ec.max_color == 0

    def test_petersen(self):
        ec = fan_rotation_color(petersen_graph())
        assert ec.is_proper() and ec.num_colors <= 4


class TestRoundRobin:
    def test_partitions_complete_graph(self):
        rounds = round_robin_rounds(6)
        assert len(rounds) == 5
        seen = set()
        for matching in rounds:
            assert len(matching) == 3
            touched = set()
            for u, v in matching:
                assert u not in touched and v not in touched
                touched.update((u, v))
            seen.update(matching)
        assert len(seen) == 15

    def test_rejects_odd_order(self):
        with pytest.raises(ParameterError):
            round_robin_rounds(5)


class TestExactChromaticIndex:
    def test_against_brute_force(self):
        rng = random.Random(4242)
        count = 0
        for _ in range(120):
            n = rng.randint(2, 5)
            g = random_graph(rng, n, p=rng.choice([0.4, 0.7]))
            if g.m == 0 or g.m > 8:
                continue
            count += 1
            assert chromatic_index_exact(g) == chromatic_index_brute(g)
        assert count > 60

    def test_families(self):
        assert chromatic_index_exact(complete_graph(4)) == 3
        assert chromatic_index_exact(complete_graph(5)) == 5
        assert chromatic_index_exact(cycle_graph(5)) == 3
        assert chromatic_index_exact(cycle_graph(6)) == 2
        assert chromatic_index_exact(petersen_graph()) == 4

    def test_find_edge_coloring(self):
        g = cycle_graph(5)
        assert find_edge_coloring(g, 2) is None
        ec = find_edge_coloring(g, 3)
        assert ec is not None and ec.is_proper() and ec.max_color <= 3

    def test_budget_exhaustion(self):
        with pytest.raises(Undecided):
            chromatic_index_exact(petersen_graph(), 3)


class TestClassPredicates:
    def test_overfull(self):
        assert is_overfull(complete_graph(5))
        assert is_overfull(cycle_graph(5))
        assert not is_overfull(complete_graph(4))
        assert not is_overfull(cycle_graph(6))

    def test_parity(self):
        assert regular_parity_class2_test(complete_graph(5))
        assert regular_parity_class2_test(cycle_graph(7))
        assert not regular_parity_class2_test(complete_graph(6))
        assert not regular_parity_class2_test(path_graph(4))

    def test_fournier(self):
        assert fournier_class1_test(star_graph(4))
        assert fournier_class1_test(path_graph(5))
        assert not fournier_class1_test(cycle_graph(6))  # all components cycles
        assert not fournier_class1_test(complete_graph(4))

    def test_dense_even_regular(self):
        assert regular_even_class1_test(complete_graph(8))
        # the hypotheses cover degrees n-3, n-4, n-5 and 7d >= 6n, nothing else
        assert not regular_even_class1_test(complete_graph(6))  # 5 = n-1
        assert not regular_even_class1_test(complete_graph(7))  # odd order
        assert not regular_even_class1_test(cycle_graph(8))  # 2 = n-6

    def test_dense_even_regular_implies_class_one(self):
        from rdnum import complement

        cube = Graph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        )
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                (0, 3), (1, 4), (2, 5)]
        )
        k33 = complete_multipartite([3, 3])
        samples = [
            cube,  # degree n-5 at the threshold
            complement(cube),  # degree n-4
            complement(cycle_graph(8)),  # degree n-3
            complement(Graph.from_edges(
                8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
            )),  # complement of a 3+5 cycle cover, degree n-3
            complete_graph(8),  # 7d >= 6n
            prism,
            k33,
        ]
        for g in samples:
            assert regular_even_class1_test(g)
            assert chromatic_index_exact(g) == max(g.degrees)
        # degree n-2 falls in the gap between the two hypothesis branches
        pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert not regular_even_class1_test(complement(pm))

    def test_classify_matches_exact_small(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                cv = classify_chromatic(g)
                assert cv.chromatic_index == chromatic_index_exact(g)
                want = 1 if cv.chromatic_index == max(g.degrees) else 2
                assert cv.verdict == want

    def test_classify_without_search(self):
        assert structural_class(petersen_graph()) is None
        got = structural_class(complete_graph(6))
        assert got is not None and got.chromatic_index == 5

    def test_classify_handles_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        cv = classify_chromatic(g)
        assert cv.chromatic_index == 3
        assert cv.method == "components"


class TestChromaticColoring:
    @pytest.mark.parametrize(
        "g", [complete_graph(5), complete_graph(6), cycle_graph(5),
              star_graph(5), petersen_graph(),
              complete_multipartite([2, 3])],
    )
    def test_produces_optimal_proper_coloring(self, g):
        cv, ec = chromatic_coloring(g)
        assert ec.is_proper()
        assert ec.max_color <= cv.chromatic_index
        assert cv.chromatic_index == chromatic_index_exact(g)


class TestVertexColoring:
    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, p=0.5)
            assert chromatic_number(g) == chromatic_number_brute(g)

    def test_critical_values(self):
        assert color_critical_value(cycle_graph(5)) == 3
        assert color_critical_value(complete_graph(4)) == 4
        assert color_critical_value(complete_graph(2)) == 2
        assert color_critical_value(path_graph(4)) is None
        assert color_critical_value(cycle_graph(6)) is None


class TestMinimality:
    def test_known_families(self):
        assert is_chromatic_index_minimal(star_graph(4))
        assert is_chromatic_index_minimal(cycle_graph(5))
        assert is_chromatic_index_minimal(cycle_graph(7))
        assert not is_chromatic_index_minimal(cycle_graph(6))
        assert not is_chromatic_index_minimal(path_graph(5))
        assert not is_chromatic_index_minimal(complete_graph(4))
        # fewer than two edges never qualifies
        assert not is_chromatic_index_minimal(complete_graph(2))
        assert is_chromatic_index_minimal(star_graph(3))

    def test_petersen_is_not_minimal(self):
        assert not is_chromatic_index_minimal(petersen_graph())


def _run(fn, *args):
    """The outcome of fn(*args, budget), or "undecided", with the nodes spent."""
    budget = args[-1]
    try:
        out = fn(*args)
    except Undecided:
        out = "undecided"
    return out, budget.spent


# ---------------------------------------------------------------------------
# The fixed-order kernel that the fail-first one replaced, with its two
# callers, copied verbatim from the code before it (renamed with a _fixed
# prefix): the reference for yes/no answers.  It spends the nodes of the two
# index-order loops it replaced in turn, one for edges and one for vertices.

def _fixed_color_in_order(res, nres: int, order, k: int, start, budget: Budget):
    """Colors 1..k indexed by item, where items sharing a resource differ
    (res[i] lists item i's resources, numbered below nres); None if none.

    Items are colored in `order`.  The first len(start) take the colors in
    `start`; each later one tries colors in ascending order, at most one
    above the largest so far, and each assignment spends one budget node."""
    colors = [0] * len(res)
    used = [0] * nres  # bit c-1 set when an item holding the resource has color c
    for i, c in zip(order, start):
        colors[i] = c
        for r in res[i]:
            used[r] |= 1 << (c - 1)
    n_start = len(start)
    cmax_at = [0] * (len(order) + 1)
    cmax_at[n_start] = max(start, default=0)
    tried = [0] * len(order)
    pos = n_start
    while pos < len(order):
        i = order[pos]
        blocked = 0
        for r in res[i]:
            blocked |= used[r]
        top = min(k, cmax_at[pos] + 1)
        c = tried[pos] + 1
        while c <= top and blocked >> (c - 1) & 1:
            c += 1
        if c > top:
            tried[pos] = 0
            pos -= 1
            if pos < n_start:
                return None
            j = order[pos]
            old = colors[j]
            for r in res[j]:
                used[r] ^= 1 << (old - 1)
            tried[pos] = old
            continue
        budget.spend()
        colors[i] = c
        tried[pos] = c
        for r in res[i]:
            used[r] |= 1 << (c - 1)
        cmax_at[pos + 1] = max(cmax_at[pos], c)
        pos += 1
    return colors


def _fixed_find_edge_coloring(g: Graph, k: int, budget: Budget | int | None = None):
    """A proper edge coloring with colors 1..k, or None if impossible.

    Complete backtracking over edges.  The star of one maximum-degree vertex
    is pre-colored 1, 2, ... (any solution can be relabeled to match), and
    new colors enter in ascending order.
    """
    b = as_budget(budget)
    if k < 0:
        raise ParameterError("color count must be nonnegative")
    if g.m == 0:
        return EdgeColoring(g, ())
    delta = max(g.degrees)
    if k < delta:
        return None
    anchor = min(v for v in range(g.n) if g.degree(v) == delta)
    star = [i for i, e in enumerate(g.edges) if anchor in e]
    in_star = set(star)
    rest = [i for i in range(g.m) if i not in in_star]
    rest.sort(
        key=lambda i: (
            -max(g.degree(g.edges[i][0]), g.degree(g.edges[i][1])),
            g.edges[i],
        )
    )
    colors = _fixed_color_in_order(
        g.edges, g.n, star + rest, k, range(1, len(star) + 1), b
    )
    if colors is None:
        return None
    out = EdgeColoring(g, tuple(colors))
    if not out.is_proper() or out.max_color > k:
        raise RdError(f"search produced an improper coloring or more than {k} colors")
    return out


def _fixed_chromatic_number(g: Graph, budget: Budget | int | None = None) -> int:
    """Exact vertex chromatic number (small graphs only)."""
    b = as_budget(budget)
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy: dict[int, int] = {}
    for v in order:
        taken = {greedy[w] for w in g.neighbors(v) if w in greedy}
        greedy[v] = _first_free(taken, len(taken) + 1)
    ub = max(greedy.values())
    incident = [[i for i, e in enumerate(g.edges) if v in e] for v in range(g.n)]
    for k in range(2, ub):
        if _fixed_color_in_order(incident, g.m, order, k, (), b) is not None:
            return k
    return ub


_SEARCH_GRAPHS = [
    g for n in range(2, 8) for g in enumerate_connected_graphs(n)
] + [petersen_graph(), complete_graph(8), cycle_graph(9)]
_GP = [generalized_petersen(n, 2) for n in range(6, 10)]


def _fresh(g: Graph) -> Graph:
    """An equal Graph object, holding no search outcomes."""
    return Graph(g.n, g.edges)


class TestSharedBacktracker:
    """find_edge_coloring and chromatic_number share the fail-first kernel
    and give the answers of the fixed-order kernel it replaced; their node
    counts differ from its own on purpose and are pinned here."""

    def test_edge_answers_match_the_fixed_order_kernel(self):
        nodes = 0
        for g in map(_fresh, _SEARCH_GRAPHS + _GP):
            delta = max(g.degrees)
            for k in (delta, delta + 1):
                ec, spent = _run(find_edge_coloring, g, k, Budget())
                fixed, _ = _run(_fixed_find_edge_coloring, g, k, Budget())
                assert (ec is None) == (fixed is None), (g, k)
                assert ec is None or (ec.is_proper() and ec.max_color <= k)
                nodes += spent
        # the fixed-order kernel spends 48,569
        assert nodes == 18_077

    def test_chromatic_numbers_match_the_fixed_order_kernel(self):
        nodes = 0
        for g in map(_fresh, _SEARCH_GRAPHS + _GP):
            chi, spent = _run(chromatic_number, g, Budget())
            assert chi == _fixed_chromatic_number(g), g
            # the oracle tries every k^n assignment: orders 7 and up take
            # seconds, except Petersen and C9
            if g.n <= 6 or g in (petersen_graph(), cycle_graph(9)):
                assert chi == chromatic_number_brute(g), g
            nodes += spent
        # the fixed-order kernel spends 5,246
        assert nodes == 3_903

    @pytest.mark.parametrize("nodes", [1, 10, 20])
    def test_small_budgets_run_out_at_the_same_node(self, nodes):
        # a full run takes 27 nodes both on Petersen at k = 3 and on K8's
        # chromatic number (36 and 27 in the fixed order); a budget below
        # that runs out on the node after its last
        p = petersen_graph()
        assert _run(find_edge_coloring, p, 3, Budget(27)) == (None, 27)
        assert _run(find_edge_coloring, p, 3, Budget(nodes)) == ("undecided", nodes + 1)
        k8 = complete_graph(8)
        assert _run(chromatic_number, k8, Budget(27)) == (8, 27)
        assert _run(chromatic_number, k8, Budget(nodes)) == ("undecided", nodes + 1)


class TestKeptSearches:
    """Each exact search runs once per Graph object (budget._kept)."""

    @staticmethod
    def _kernel_runs(monkeypatch) -> list:
        runs = []
        real = coloring._color_fail_first

        def counted(*args):
            runs.append(args[1])
            return real(*args)

        monkeypatch.setattr(coloring, "_color_fail_first", counted)
        return runs

    def test_a_replay_charges_the_stored_cost(self, monkeypatch):
        runs = self._kernel_runs(monkeypatch)
        g = petersen_graph()
        for _ in range(2):
            assert _run(find_edge_coloring, g, 3, Budget()) == (None, 27)
            assert _run(chromatic_number, g, Budget()) == (3, 4)
            assert _run(color_critical_value, g, Budget()) == (None, 8)
        # one edge search at k = 3; χ = 3 is the greedy bound, so only k = 2
        # is searched; Petersen's degrees pass the criticality screen, and
        # its first deletion keeps χ, again searched at k = 2 alone
        assert runs == [3, 2, 2]

    def test_a_search_that_ran_out_is_not_kept(self, monkeypatch):
        runs = self._kernel_runs(monkeypatch)
        g = petersen_graph()
        for nodes in (1, 26):
            assert _run(find_edge_coloring, g, 3, Budget(nodes)) == ("undecided", nodes + 1)
            assert _run(chromatic_number, g, Budget(1)) == ("undecided", 2)
        assert _run(find_edge_coloring, g, 3, Budget()) == _run(
            find_edge_coloring, petersen_graph(), 3, Budget()
        )
        assert _run(chromatic_number, g, Budget()) == (3, 4)
        assert len(runs) == 4 + 1 + 1 + 1

    def test_a_hit_without_the_budget_left_searches_again(self, monkeypatch):
        g = petersen_graph()
        find_edge_coloring(g, 3)
        runs = self._kernel_runs(monkeypatch)
        # 27 nodes kept: a budget of 40 with 20 spent has too few left
        short, fresh = Budget(40), Budget(40)
        short.spent = fresh.spent = 20
        got = _run(find_edge_coloring, g, 3, short)
        assert got == _run(find_edge_coloring, petersen_graph(), 3, fresh)
        assert got == ("undecided", 41) and len(runs) == 2

    def test_a_class_one_graph_runs_the_kernel_once_per_coloring(self, monkeypatch):
        # classified by search, then colored by the same search: once for
        # chromatic_coloring, once for the construction, which ends in a
        # proper coloring
        runs = self._kernel_runs(monkeypatch)
        cv, ec = chromatic_coloring(parse_graph6(r"Et\w"))
        assert (cv.verdict, cv.method) == (1, "exact") and ec.max_color == 4
        assert runs == [4]
        ec, how = construct_rd_coloring(parse_graph6(r"Et\w"))
        assert how == "proper-coloring" and runs == [4, 4]

    def test_a_rebuilt_graph_searches_again(self, monkeypatch):
        runs = self._kernel_runs(monkeypatch)
        g = petersen_graph()
        for h in (g, g, _fresh(g), g):
            find_edge_coloring(h, 3)
            chromatic_number(h)
        assert runs == [3, 2] * 2


def test_order_eight_class_two_answers_match_the_fixed_order_kernel():
    # the connected Class 2 graphs of order 8, none settled by a cheap test:
    # the refutations are where the nodes go.  The census is shared with
    # tests/test_canonical.py; each graph is searched as a fresh object, so
    # the census keeps no outcomes
    class2 = [
        g
        for g in map(_fresh, _all_graphs(8))
        if g.is_connected()
        and structural_class(g) is None
        and find_edge_coloring(g, max(g.degrees)) is None
    ]
    assert len(class2) == 67
    nodes = [0, 0]
    for g in class2:
        delta = max(g.degrees)
        for j, k in enumerate((delta, delta + 1)):
            ec, spent = _run(find_edge_coloring, _fresh(g), k, Budget())
            fixed = _fixed_find_edge_coloring(g, k)
            assert (ec is None) == (fixed is None) == (k == delta), (g, k)
            assert ec is None or (ec.is_proper() and ec.max_color <= k)
            nodes[j] += spent
    # the fixed-order kernel spends 329,354 refuting k = Δ
    assert nodes == [31_410, 768]


def test_first_free_guard_raises_rd_error():
    assert _first_free({1: 0, 3: 2}, 3) == 2
    with pytest.raises(RdError):
        _first_free({1: 0, 2: 1}, 2)


def _old_fournier_class1_test(g: Graph) -> bool:
    """The induced-subgraph route that the mask test replaced, copied
    verbatim from the code before it (renamed with an _old prefix)."""
    if g.m == 0 or not g.is_connected():
        return False
    delta = max(g.degrees)
    core = [v for v in range(g.n) if g.degree(v) == delta]
    sub, _ = g.induced_subgraph(core)
    all_cycles = True
    for mask in sub.components():
        nc = mask.bit_count()
        mc = sum(1 for u, v in sub.edges if mask >> u & 1 and mask >> v & 1)
        if mc > nc:
            return False
        if not (mc == nc and all(sub.degree(v) == 2 for v in mask_vertices(mask))):
            all_cycles = False
    return not all_cycles


def test_fournier_matches_the_induced_subgraph_route():
    """Every graph of order 1..7, disconnected ones included."""
    verdicts = [
        (fournier_class1_test(g), _old_fournier_class1_test(g))
        for n in range(1, 8)
        for g in _all_graphs(n)
    ]
    assert all(new == old for new, old in verdicts)
    assert sum(new for new, _ in verdicts) > 100


# ---------------------------------------------------------------------------
# The two deletion loops that the structural tests now front, copied verbatim
# from the code before them (renamed with an _old prefix).  The minimality
# loop keeps its cross-check against the characterization, so the reference
# comparison below also checks the characterization over every input.

def _old_color_critical_value(g: Graph, budget: Budget | int | None = None) -> int | None:
    """The chromatic number, when deleting any single edge lowers it; else None."""
    b = as_budget(budget)
    if g.m == 0:
        return None
    chi = chromatic_number(g, b)
    for i in range(g.m):
        rest = Graph(g.n, g.edges[:i] + g.edges[i + 1 :])
        if chromatic_number(rest, b) >= chi:
            return None
    return chi


def _old_is_chromatic_index_minimal(g: Graph, budget: Budget | int | None = None) -> bool:
    """True when deleting any single edge lowers the chromatic index.

    Needs at least two edges.  On connected graphs with max degree >= 2 the
    answer is cross-checked against the structural characterization (Class 1
    minimal graphs are exactly the stars; Class 2 ones are those where every
    single-edge deletion lands in Class 1); disagreement is a hard error.
    """
    b = as_budget(budget)
    if g.m < 2:
        return False
    base = classify_chromatic(g, b)
    sub_verdicts = []
    direct = True
    for i in range(g.m):
        rest = Graph(g.n, g.edges[:i] + g.edges[i + 1 :])
        cv = classify_chromatic(rest, b)
        sub_verdicts.append(cv)
        if cv.chromatic_index != base.chromatic_index - 1:
            direct = False
    delta = max(g.degrees)
    if delta >= 2 and g.is_connected():
        if base.verdict == 1:
            alt = g.m == g.n - 1 and delta == g.n - 1  # a star
        else:
            alt = all(cv.verdict == 1 for cv in sub_verdicts)
        if alt != direct:
            raise RdError("edge-minimality characterization mismatch")
    return direct


_C5 = cycle_graph(5).edges
_DISCONNECTED = [
    Graph(5, [(0, 1), (0, 2), (0, 3)]),  # K1,3 + K1
    Graph(6, _C5),  # C5 + K1
    Graph(7, _C5 + ((5, 6),)),  # C5 + K2
    Graph(4, [(0, 1), (2, 3)]),  # 2K2
]


def test_structural_route_matches_the_deletion_loops():
    census = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    extra = [petersen_graph(), complete_graph(8), cycle_graph(9)]
    minimal = critical = 0
    for g in census + extra + _DISCONNECTED:
        got = is_chromatic_index_minimal(g)
        assert got == _old_is_chromatic_index_minimal(g), g
        crit = color_critical_value(g)
        assert crit == _old_color_critical_value(g), g
        minimal += got
        critical += crit is not None
    # both answers occur: 31 minimal and 12 critical census graphs, plus
    # C9, K1,3 + K1 and C5 + K1 minimal and K8, C9 and C5 + K1 critical
    assert (minimal, critical) == (34, 15)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(coloring, name)

    def wrapped(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(coloring, name, wrapped)
    return calls


@pytest.mark.parametrize(
    "g, calls",
    [
        (cycle_graph(6), 1),  # Class 1, not a star
        (complete_graph(4), 1),
        (path_graph(5), 1),
        (star_graph(4), 0),  # a star needs no classification
        (parse_graph6("EiKw"), 1),  # Class 2; the leaf sees one vertex of degree Δ
        (petersen_graph(), 2),  # passes the adjacency test; its first deletion stays Class 2
    ],
)
def test_minimality_classifies_only_what_structure_leaves_open(monkeypatch, g, calls):
    want = _old_is_chromatic_index_minimal(g)
    seen = _counting(monkeypatch, "classify_chromatic")
    assert is_chromatic_index_minimal(g) == want
    assert len(seen) == calls


@pytest.mark.parametrize(
    "g, calls",
    [
        (Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 1),  # χ = 3, a leaf
        (Graph(5, complete_graph(4).edges + ((3, 4),)), 1),  # χ = 4, a leaf
        (complete_graph(8), 29),  # critical: every deletion is colored
    ],
)
def test_criticality_colors_only_what_degrees_leave_open(monkeypatch, g, calls):
    want = _old_color_critical_value(g)
    seen = _counting(monkeypatch, "chromatic_number")
    assert color_critical_value(g) == want
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# chromatic_coloring before it shared its dispatch with the rd constructions,
# copied verbatim from the code before it (renamed with an _old prefix), as
# the reference its verdicts, colorings and node counts must match.

def _old_chromatic_coloring(
    g: Graph, budget: Budget | int | None = None
) -> tuple[ClassVerdict, EdgeColoring]:
    """Optimal proper edge coloring plus the verdict explaining its size."""
    b = as_budget(budget)
    cv = classify_chromatic(g, b)
    if g.m == 0:
        return cv, EdgeColoring(g, ())
    delta = max(g.degrees)
    if cv.chromatic_index == delta + 1:
        ec = fan_rotation_color(g)
        if ec.num_colors != delta + 1:
            raise RdError("class two coloring does not use max degree + 1 colors")
        return cv, ec
    if is_complete(g) and g.n % 2 == 0:
        by_edge = {}
        for r, matching in enumerate(round_robin_rounds(g.n), start=1):
            for e in matching:
                by_edge[e] = r
        return cv, EdgeColoring(g, tuple(by_edge[e] for e in g.edges))
    if bipartition(g) is not None:
        return cv, bipartite_color(g)
    ec = find_edge_coloring(g, cv.chromatic_index, b)
    if ec is None:
        raise RdError("classification promised this many colors suffice")
    return cv, ec


def test_chromatic_coloring_matches_the_old_dispatch():
    census = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    named = [complete_graph(n) for n in range(1, 9)]
    named += [petersen_graph(), star_graph(5), complete_multipartite([2, 3])]
    named += [generalized_petersen(n, 2) for n in range(6, 10)]
    named += [cycle_graph(n) for n in range(16, 21)]
    for g in census + named:
        new = _run(chromatic_coloring, g, Budget())
        assert new == _run(_old_chromatic_coloring, g, Budget()), g
