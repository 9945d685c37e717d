"""The pruned bipartition enumerator against plain loops over every mask.

Cut systems and rainbow-cut certificates both come from one depth-first
enumeration that prunes on the crossing count and on repeated colors.  The
loops here walk all 2^n vertex masks instead, over the whole census up to
order 7 and a few larger cubic graphs.
"""

import random
from itertools import combinations

from rdnum import (
    EdgeColoring,
    Graph,
    enumerate_connected_graphs,
    find_rainbow_cut,
    petersen_graph,
)
from rdnum.rd import _build_cut_system, _cut_sides


def generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)]
    return Graph.from_edges(2 * n, edges)


def crossing(g: Graph, side: int) -> tuple[int, ...]:
    return tuple(
        i for i, (a, b) in enumerate(g.edges) if (side >> a ^ side >> b) & 1
    )


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
            cuts_of_edge = [
                [c for c, (_, xs) in enumerate(kept) if i in xs]
                for i in range(g.m)
            ]
            pair_sep = [
                sum(
                    1 << c
                    for c, (side, _) in enumerate(kept)
                    if (side >> u & 1) != (side >> v & 1)
                )
                for u, v in pairs
            ]
            sides, cross, got_cuts, got_pairs, got_sep = _build_cut_system(
                g, k, _cut_sides(g, k)
            )
            assert list(zip(sides, cross)) == kept, (g, k)
            assert got_cuts == cuts_of_edge, (g, k)
            assert got_pairs == pairs, (g, k)
            assert got_sep == pair_sep, (g, k)
            builds += 1
    assert builds == 4350


def test_filtered_systems_equal_fresh_builds():
    # rd_exact enumerates the sides once and filters them for each lower
    # level; the maximum degree is at or above the level it enumerates at
    graphs = list(census()) + [petersen_graph()]
    graphs += [generalized_petersen(n, 2) for n in range(6, 9)]
    builds = 0
    for g in graphs:
        top = max(g.degrees)
        wide = _cut_sides(g, top)
        for k in range(1, top + 1):
            fresh = _build_cut_system(g, k, _cut_sides(g, k))
            assert _build_cut_system(g, k, wide) == fresh, (g, k)
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
