"""The pruned bipartition enumerator against plain loops over every mask.

Cut systems and rainbow-cut certificates both come from one depth-first
enumeration that prunes on the crossing count and on repeated colors.  The
loops here walk all 2^n vertex masks instead, over the whole census up to
order 7 and a few larger cubic graphs.  The count-only walk that lists the
cut sides is held to the walk that colors each edge with its own id; the
walker's budget charges are pinned by the ledger (`tests/test_ledger.py`)
and by `tests/test_rd.py::test_verification_spends_the_pinned_total`.
"""

import random
from itertools import combinations

import pytest

from rdnum import (
    Budget,
    EdgeColoring,
    Graph,
    Undecided,
    enumerate_connected_graphs,
    find_rainbow_cut,
    petersen_graph,
)
from rdnum.rd import _bipartitions, _build_cut_system, _cut_sides


def generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)]
    return Graph.from_edges(2 * n, edges)


def crossing(g: Graph, side: int) -> tuple[int, ...]:
    return tuple(
        i for i, (a, b) in enumerate(g.edges) if (side >> a ^ side >> b) & 1
    )


def splits(side: int, u: int, v: int) -> bool:
    return (side >> u & 1) != (side >> v & 1)


def census():
    for n in range(2, 8):
        yield from enumerate_connected_graphs(n)


def test_cut_systems_match_a_loop_over_all_sides():
    graphs = list(census()) + [petersen_graph()]
    graphs += [generalized_petersen(n, 2) for n in range(6, 9)]
    builds = 0
    for g in graphs:
        full = (1 << g.n) - 1
        # the odd masks below the full one are the sides holding vertex 0
        every = [(side, crossing(g, side)) for side in range(1, full, 2)]
        pairs = list(combinations(range(g.n), 2))
        for k in range(1, min(max(g.degrees) + 1, g.n - 1)):
            kept = [(side, xs) for side, xs in every if len(xs) <= k]
            edge_cuts = [
                sum(1 << c for c, (_, xs) in enumerate(kept) if i in xs)
                for i in range(g.m)
            ]
            pair_sep = [
                sum(1 << c for c, (side, _) in enumerate(kept) if splits(side, u, v))
                for u, v in pairs
            ]
            split_pairs = [
                sum(1 << p for p, (u, v) in enumerate(pairs) if splits(side, u, v))
                for side, _ in kept
            ]
            wide = _cut_sides(g, k)
            assert wide == [
                (side, sum(1 << i for i in xs)) for side, xs in kept
            ], (g, k)
            sizes, got_cuts, got_pairs, got_sep, got_splits = (
                _build_cut_system(g, wide)
            )
            assert sizes == [len(xs) for _, xs in kept], (g, k)
            assert got_cuts == edge_cuts, (g, k)
            assert got_pairs == pairs, (g, k)
            assert got_sep == pair_sep, (g, k)
            assert got_splits == split_pairs, (g, k)
            builds += 1
    assert builds == 4350


def level_slice(system, k: int):
    """The cuts of `system` that at most k edges cross, numbered afresh in
    their order, with every mask over cuts read back onto that numbering."""
    sizes, edge_cuts, pairs, pair_sep, splits = system
    kept = [c for c, size in enumerate(sizes) if size <= k]

    def renumber(mask: int) -> int:
        return sum(1 << j for j, c in enumerate(kept) if mask >> c & 1)

    return (
        [sizes[c] for c in kept],
        [renumber(cuts) for cuts in edge_cuts],
        pairs,
        [renumber(sep) for sep in pair_sep],
        [splits[c] for c in kept],
    )


def test_filtered_systems_equal_fresh_builds():
    # rd_exact builds one system per side enumeration and searches each
    # lower level on its cuts crossed by at most k edges; the maximum degree
    # is at or above the level it enumerates at
    graphs = list(census()) + [petersen_graph()]
    graphs += [generalized_petersen(n, 2) for n in range(6, 9)]
    builds = 0
    for g in graphs:
        top = max(g.degrees)
        system = _build_cut_system(g, _cut_sides(g, top))
        for k in range(1, top + 1):
            fresh = _build_cut_system(g, _cut_sides(g, k))
            assert level_slice(system, k) == fresh, (g, k)
            builds += 1
    assert builds == 4558


def test_certificates_are_the_first_rainbow_side_in_order():
    rng = random.Random(20261018)
    found = {"star": 0, "other": 0, "none": 0}
    for g in census():
        colors = tuple(
            rng.randint(1, max(g.degrees) + 1) for _ in range(g.m)
        )
        ec = EdgeColoring(g, colors)
        full = (1 << g.n) - 1
        rainbow = []
        for side in range(full + 1):
            cols = [colors[i] for i in crossing(g, side)]
            rainbow.append(len(cols) == len(set(cols)))
        for u, v in combinations(range(g.n), 2):
            # the documented order: the star of u, the complement of the
            # star of v, then every side holding u but not v by mask
            order = [1 << u, full ^ (1 << v)] + [
                side
                for side in range(full + 1)
                if side >> u & 1 and not side >> v & 1
            ]
            want = next((side for side in order if rainbow[side]), None)
            cert = find_rainbow_cut(ec, u, v)
            if want is None:
                assert cert is None, (g, colors, u, v)
                found["none"] += 1
                continue
            assert cert is not None and cert.side == want, (g, colors, u, v)
            assert cert.crossing == tuple(
                (g.edges[i], colors[i]) for i in crossing(g, want)
            )
            found["star" if want in order[:2] else "other"] += 1
    assert min(found.values()) > 0, found


def _spent_at_undecided(call, limit: int) -> int:
    """The nodes spent when call(Budget(limit)) raises Undecided."""
    budget = Budget(limit)
    with pytest.raises(Undecided):
        call(budget)
    return budget.spent


def _walked(g: Graph, call, sides: list):
    """A call for `_spent_at_undecided`: walk `_bipartitions` over g with
    the arguments `call`, keeping in `sides` what it yields before
    Undecided."""

    def walk(budget: Budget) -> None:
        for side in _bipartitions(g, *call, budget):
            sides.append(side)

    return walk


def test_count_only_walk_matches_the_walk_colored_by_edge_ids():
    # the walk `_cut_sides` makes, with no colors, against the slow path that
    # colors each edge with its own id, at every level `rd_exact` lists: the
    # same sides in the same order and the same nodes spent; and where a
    # smaller budget runs out, the same nodes spent and the same sides
    # yielded before it
    graphs = list(census()) + [petersen_graph()]
    graphs += [generalized_petersen(n, 2) for n in range(6, 10)]
    walks = limited = 0
    for g in graphs:
        for k in range(1, min(max(g.degrees) + 1, g.n - 1)):
            fast, slow = (1, 0, None, k), (1, 0, range(g.m), k)
            fast_budget, slow_budget = Budget(), Budget()
            got = list(_bipartitions(g, *fast, fast_budget))
            assert got == list(_bipartitions(g, *slow, slow_budget)), (g, k)
            spent = slow_budget.spent
            assert fast_budget.spent == spent, (g, k)
            walks += 1
            for limit in sorted({1, spent // 2, spent - 1} & set(range(1, spent))):
                fast_sides, slow_sides = [], []
                assert _spent_at_undecided(
                    _walked(g, fast, fast_sides), limit
                ) == _spent_at_undecided(
                    _walked(g, slow, slow_sides), limit
                ), (g, k, limit)
                assert fast_sides == slow_sides, (g, k, limit)
                limited += 1
    assert (walks, limited) == (4_353, 13_059)
