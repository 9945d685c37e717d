import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnum import (
    FormatError,
    Graph,
    ParameterError,
    SizeError,
    StructureError,
    basic_stats,
    bipartition,
    blocks,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    encode_graph6,
    is_complete,
    is_cycle_graph,
    is_tree,
    parse_graph6,
    path_graph,
    petersen_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_basic(self):
        g = Graph.from_edges(4, [(2, 1), (0, 1)])
        assert g.n == 4
        assert g.m == 2
        assert g.edges == ((0, 1), (1, 2))
        assert g.degrees == (1, 2, 1, 0)
        assert g.neighbors(1) == [0, 2]
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ParameterError):
            Graph.from_edges(0, [])
        with pytest.raises(SizeError):
            Graph.from_edges(63, [])

    def test_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert not g.is_connected()
        comps = g.components()
        assert len(comps) == 3
        assert path_graph(4).is_connected()

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        h, kept = g.induced_subgraph([0, 1, 2])
        assert kept == (0, 1, 2)
        assert h.edges == ((0, 1), (1, 2))


class TestStats:
    def test_path(self):
        s = basic_stats(path_graph(4))
        assert (s.n, s.m) == (4, 3)
        assert (s.min_degree, s.max_degree) == (1, 2)
        assert s.connected and s.bipartite and not s.regular

    def test_shapes(self):
        assert is_tree(star_graph(5))
        assert not is_tree(cycle_graph(4))
        assert is_cycle_graph(cycle_graph(7))
        assert not is_cycle_graph(path_graph(3))
        assert is_complete(complete_graph(4))
        assert not is_complete(cycle_graph(4))

    def test_bipartition(self):
        got = bipartition(cycle_graph(6))
        assert got is not None
        left, right = got
        assert left | right == (1 << 6) - 1
        assert bipartition(cycle_graph(5)) is None


class TestGraph6:
    def test_known_strings(self):
        assert encode_graph6(complete_graph(4)) == "C~"
        assert encode_graph6(path_graph(4)) == "Ch"
        assert encode_graph6(Graph.from_edges(5, [])) == "D??"
        assert parse_graph6("C~").edges == complete_graph(4).edges

    def test_rejects_malformed(self):
        with pytest.raises(FormatError):
            parse_graph6("")
        with pytest.raises(FormatError):
            parse_graph6("~??")  # long form
        with pytest.raises(FormatError):
            parse_graph6("C")  # truncated data
        with pytest.raises(FormatError):
            parse_graph6("C!")  # '!' is below the graph6 alphabet
        with pytest.raises(FormatError):
            parse_graph6("C~~")  # extra data byte

    def test_rejects_nonzero_padding(self):
        # K_2 is "A_" (bit 1 then five zero pad bits); flip a pad bit
        assert encode_graph6(complete_graph(2)) == "A_"
        with pytest.raises(FormatError):
            parse_graph6("A`")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=14))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, chosen)
        assert parse_graph6(encode_graph6(g)) == g

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(rng, n)
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges)
            want = nx.to_graph6_bytes(ng, header=False).decode().strip()
            assert encode_graph6(g) == want
            assert parse_graph6(want) == g


class TestEdgeList:
    def test_round_trip(self):
        g = petersen_graph()
        assert read_edge_list(write_edge_list(g)) == g

    def test_error_lines(self):
        with pytest.raises(FormatError, match="line 1"):
            read_edge_list("nonsense\n")
        with pytest.raises(FormatError, match="line 3"):
            read_edge_list("3 2\n0 1\n1 x\n")
        with pytest.raises(FormatError, match="2 edge"):
            read_edge_list("3 2\n0 1\n")


class TestGenerators:
    def test_petersen(self):
        g = petersen_graph()
        assert (g.n, g.m) == (10, 15)
        assert set(g.degrees) == {3}
        # girth five: no triangles
        for u, v in g.edges:
            assert not any(g.has_edge(u, w) and g.has_edge(v, w) for w in range(10))

    def test_complete_multipartite(self):
        g = complete_multipartite([1, 2, 2])
        assert (g.n, g.m) == (5, 8)
        assert g.degrees == (4, 3, 3, 3, 3)
        with pytest.raises(ParameterError):
            complete_multipartite([])
        with pytest.raises(ParameterError):
            complete_multipartite([0, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers())
    def test_complement_involution(self, n, seed):
        g = random_graph(random.Random(seed), n)
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == n * (n - 1) // 2


class TestBlocks:
    def test_paw(self):
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        parts = blocks(paw)
        assert [b.vertices for b in parts] == [(0, 1, 2), (2, 3)]
        assert parts[0].graph.m == 3

    def test_path_splits_per_edge(self):
        parts = blocks(path_graph(4))
        assert len(parts) == 3
        assert all(b.graph.n == 2 for b in parts)

    def test_biconnected_is_single_block(self):
        assert len(blocks(complete_graph(4))) == 1
        assert len(blocks(cycle_graph(6))) == 1

    def test_two_triangles_at_cut_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        parts = blocks(g)
        assert len(parts) == 2
        assert all(b.graph.m == 3 for b in parts)

    def test_requires_connected(self):
        with pytest.raises(StructureError):
            blocks(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(StructureError):
            blocks(Graph.from_edges(1, []))
