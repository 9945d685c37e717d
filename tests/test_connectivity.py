import random
from itertools import combinations

import pytest

from rdnum import (
    Graph,
    StructureError,
    complete_graph,
    cycle_graph,
    dense_pair_lower_bound,
    edge_connectivity,
    enumerate_connected_graphs,
    local_edge_connectivity,
    low_degree_deficiency,
    path_graph,
    petersen_graph,
    star_graph,
    upper_edge_connectivity,
)
from _oracles import bipartition_min_cut
from test_bipartitions import generalized_petersen
from test_graphs import random_graph


def _old_local_edge_connectivity(g: Graph, u: int, v: int) -> int:
    """`local_edge_connectivity` as it was before it ran on masks, with
    residual capacities in one dict per vertex; copied verbatim from the
    code before it (renamed with an _old prefix, argument checks left
    out)."""
    # residual[x] maps neighbor y to the remaining capacity of arc x->y
    residual: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for a, b in g.edges:
        residual[a][b] = 1
        residual[b][a] = 1

    def augment() -> bool:
        prev = [-1] * g.n
        prev[u] = u
        queue = [u]
        for x in queue:
            if x == v:
                break
            for y, cap in residual[x].items():
                if cap and prev[y] == -1:
                    prev[y] = x
                    queue.append(y)
        if prev[v] == -1:
            return False
        y = v
        while y != u:
            x = prev[y]
            residual[x][y] -= 1
            residual[y][x] += 1
            y = x
        return True

    value = 0
    while augment():
        value += 1
    return value


class TestLocalConnectivity:
    def test_matches_bipartition_oracle(self):
        rng = random.Random(20240817)
        for _ in range(90):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
            for u, v in combinations(range(n), 2):
                got = local_edge_connectivity(g, u, v)
                assert got == bipartition_min_cut(g, u, v)

    def test_matches_bipartition_oracle_on_the_census(self):
        graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
        for g in graphs + [petersen_graph()]:
            for u, v in combinations(range(g.n), 2):
                want = bipartition_min_cut(g, u, v)
                assert local_edge_connectivity(g, u, v) == want, (g.edges, u, v)
        # cubic and 3-edge-connected: every pair is joined by three paths
        for n in range(6, 10):
            g = generalized_petersen(n, 2)
            for u, v in combinations(range(g.n), 2):
                assert local_edge_connectivity(g, u, v) == 3, (n, u, v)

    def test_mask_flow_matches_the_dict_flow_on_the_census(self):
        # every pair of the census 2..7 and Petersen, from either end
        graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
        pairs = 0
        for g in graphs + [petersen_graph()]:
            for u, v in combinations(range(g.n), 2):
                want = _old_local_edge_connectivity(g, u, v)
                assert local_edge_connectivity(g, u, v) == want, (g.edges, u, v)
                assert local_edge_connectivity(g, v, u) == want, (g.edges, v, u)
                pairs += 1
        assert pairs == 19891

    def test_same_vertex_rejected(self):
        from rdnum import ParameterError

        with pytest.raises(ParameterError):
            local_edge_connectivity(path_graph(3), 1, 1)

    def test_out_of_range_vertex_rejected(self):
        from rdnum import ParameterError

        for u, v in [(0, 3), (-1, 2), (3, 0)]:
            with pytest.raises(ParameterError):
                local_edge_connectivity(path_graph(3), u, v)


class TestGlobal:
    @pytest.mark.parametrize(
        "g,lam,lamp",
        [
            (path_graph(5), 1, 1),
            (cycle_graph(6), 2, 2),
            (complete_graph(5), 4, 4),
            (star_graph(5), 1, 1),
            (petersen_graph(), 3, 3),
        ],
    )
    def test_families(self, g, lam, lamp):
        assert edge_connectivity(g) == lam
        assert upper_edge_connectivity(g) == lamp

    def test_lambda_plus_exceeds_lambda(self):
        # two cliques sharing a vertex: global cut 2, inner pairs need 3
        g = Graph.from_edges(
            7, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3),
                (3, 4), (4, 5), (3, 5), (3, 6), (4, 6), (5, 6)]
        )
        assert edge_connectivity(g) == 3
        assert upper_edge_connectivity(g) == 3
        g2 = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert edge_connectivity(g2) == 2
        assert upper_edge_connectivity(g2) == 2

    def test_lambda_plus_is_the_all_pairs_maximum_on_the_census(self):
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                want = max(
                    local_edge_connectivity(g, u, v)
                    for u, v in combinations(range(n), 2)
                )
                assert upper_edge_connectivity(g) == want, g.edges

    def test_requires_connected(self):
        with pytest.raises(StructureError):
            upper_edge_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(StructureError):
            upper_edge_connectivity(Graph.from_edges(1, []))

    def test_disconnected_global_is_zero(self):
        assert edge_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0


class TestDensityBound:
    def test_families(self):
        assert dense_pair_lower_bound(path_graph(4)) == 1
        assert dense_pair_lower_bound(complete_graph(5)) == 4
        assert dense_pair_lower_bound(cycle_graph(5)) == 2

    def test_never_exceeds_lambda_plus(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, p=0.6)
            if not g.is_connected():
                continue
            assert dense_pair_lower_bound(g) <= upper_edge_connectivity(g)

    def test_deficiency(self):
        g = star_graph(5)  # one center of degree 4, four leaves
        assert low_degree_deficiency(g, 2) == 4
        assert low_degree_deficiency(g, 1) == 0
        assert low_degree_deficiency(complete_graph(4), 2) == 0
