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
    local_edge_connectivity,
    low_degree_deficiency,
    path_graph,
    petersen_graph,
    star_graph,
    upper_edge_connectivity,
)
from _oracles import bipartition_min_cut
from test_graphs import random_graph


class TestLocalConnectivity:
    def test_matches_bipartition_oracle(self):
        rng = random.Random(20240817)
        for _ in range(90):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
            for u, v in combinations(range(n), 2):
                got = local_edge_connectivity(g, u, v)
                assert got.value == bipartition_min_cut(g, u, v)

    def test_witnesses(self):
        g = petersen_graph()
        cut = local_edge_connectivity(g, 0, 7)
        assert cut.value == 3
        assert len(cut.paths) == 3 and len(cut.cut_edges) == 3
        # paths are edge disjoint and run from u to v
        seen = set()
        for path in cut.paths:
            assert path[0] == 0 and path[-1] == 7
            for a, b in zip(path, path[1:]):
                e = (a, b) if a < b else (b, a)
                assert g.has_edge(a, b) and e not in seen
                seen.add(e)
        # removing the cut separates the pair, and the side mask is real
        assert not any(
            ((cut.side >> a) & 1) != ((cut.side >> b) & 1)
            for a, b in g.edges
            if (a, b) not in cut.cut_edges
        )
        assert (cut.side >> 0) & 1 and not (cut.side >> 7) & 1

    def test_same_vertex_rejected(self):
        from rdnum import ParameterError

        with pytest.raises(ParameterError):
            local_edge_connectivity(path_graph(3), 1, 1)


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
