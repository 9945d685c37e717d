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
    enumerate_connected_graphs,
    is_complete,
    is_cycle_graph,
    is_tree,
    parse_graph6,
    path_graph,
    petersen_graph,
    read_coloring,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from rdnum.graphs import (
    MAX_VERTICES,
    Block,
    Edge,
    mask_vertices,
    normalize_edge,
)
from rdnum.survey import _all_graphs

from test_bipartitions import generalized_petersen


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

    def test_components_match_a_plain_search(self):
        def reach(g, start):
            seen = {start}
            queue = [start]
            for x in queue:
                for y in g.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            return sum(1 << v for v in seen)

        rng = random.Random(62)
        graphs = [g for k in range(1, 7) for g in _all_graphs(k)]
        graphs += [
            random_graph(rng, MAX_VERTICES, p=d / MAX_VERTICES)
            for d in (1, 2, 4, 8)
            for _ in range(5)
        ]
        for g in graphs:
            want = [reach(g, v) for v in range(g.n)]
            assert [g.component_mask(v) for v in range(g.n)] == want
            assert g.is_connected() == (want[0] == (1 << g.n) - 1)
            assert g.components() == sorted(set(want), key=lambda c: c & -c)

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
        with pytest.raises(FormatError, match="^byte 1: expected 2 bytes"):
            parse_graph6("C")  # truncated data
        with pytest.raises(FormatError):
            parse_graph6("C!")  # '!' is below the graph6 alphabet
        with pytest.raises(FormatError, match="^byte 2: expected 2 bytes"):
            parse_graph6("C~~")  # extra data byte, the first one named

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

    # one input per check the edge-list and coloring readers share: the
    # edge list, the same file with a color column, and the line to name
    SHARED_CHECKS = [
        ("", "", 1),  # no header
        ("3\n", "3 0\n", 1),  # header fields
        ("3 x\n", "3 x 1\n", 1),  # header integers
        ("3 -1\n", "3 -1 1\n", 1),  # negative header field
        ("0 0\n", "0 0 1\n", 1),  # order below 1..62
        ("63 0\n", "63 0 1\n", 1),  # order above it
        ("3 2\n0 1\n", "3 2 1\n0 1 1\n", 2),  # edge count
        ("3 1\n0\n", "3 1 1\n0 1\n", 2),  # row fields
        ("3 2\n0 1\n1 x\n", "3 2 1\n0 1 1\n1 x 1\n", 3),  # row integers
        ("3 2\n0 1\n1 3\n", "3 2 1\n0 1 1\n1 3 1\n", 3),  # endpoint range
        ("3 2\n0 1\n2 2\n", "3 2 1\n0 1 1\n2 2 1\n", 3),  # self-loop
        ("3 2\n0 1\n1 0\n", "3 2 1\n0 1 1\n1 0 1\n", 3),  # duplicate edge
    ]

    @pytest.mark.parametrize("plain,colored,line", SHARED_CHECKS)
    def test_both_readers_name_the_same_line(self, plain, colored, line):
        with pytest.raises(FormatError) as got_plain:
            read_edge_list(plain)
        with pytest.raises(FormatError) as got_colored:
            read_coloring(colored)
        for got in (got_plain, got_colored):
            assert str(got.value).startswith(f"line {line}: ")
        # the messages differ only where they quote the two formats
        quoted = str(got_plain.value).replace("'n m'", "'n m k'")
        assert quoted.replace("'u v'", "'u v c'") == str(got_colored.value)

    @pytest.mark.parametrize("plain,colored,line", SHARED_CHECKS[1:])
    def test_blank_lines_before_the_header_are_counted(self, plain, colored, line):
        # the header may follow blank lines, and every rejection still names
        # the line of the file: two lines further down here
        for read, text in ((read_edge_list, plain), (read_coloring, colored)):
            with pytest.raises(FormatError, match=f"^line {line + 2}: "):
                read("\n  \n" + text)

    def test_blank_lines_before_the_header_are_skipped(self):
        g = petersen_graph()
        assert read_edge_list("\n\n" + write_edge_list(g)) == g

    def test_blank_rows_are_skipped_and_counted(self):
        assert read_edge_list("4 3\n0 1\n\n1 2\n2 3\n") == path_graph(4)
        ec = read_coloring("4 3 2\n0 1 1\n  \n1 2 2\n\n2 3 1\n")
        assert ec.graph == path_graph(4) and ec.colors == (1, 2, 1)
        for read, text in (
            (read_edge_list, "3 2\n0 1\n\n1 x\n"),
            (read_coloring, "3 2 1\n\n0 1 1\n1 x 1\n"),
        ):
            with pytest.raises(FormatError, match="^line 4: fields must be integers"):
                read(text)
        # the count names the last row, not the blank lines after it
        with pytest.raises(FormatError, match="^line 3: header announces 2 edges"):
            read_edge_list("3 2\n\n0 1\n\n")


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


# ---------------------------------------------------------------------------
# The block decomposition before it ran on masks, copied verbatim from the
# code before it (renamed with an _old prefix): a recursive edge-stack DFS
# (Hopcroft & Tarjan 1973) that builds each block from its popped edges.

def _old_blocks(g: Graph) -> list[Block]:
    """Biconnected components of a connected graph; every edge lies in exactly one."""
    if g.n < 2:
        raise StructureError("block decomposition needs at least two vertices")
    if not g.is_connected():
        raise StructureError("block decomposition requires a connected graph")

    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    edge_stack: list[Edge] = []
    block_edge_sets: list[list[Edge]] = []

    def dfs(x: int, parent_edge: Edge | None) -> None:
        disc[x] = low[x] = timer[0]
        timer[0] += 1
        for y in mask_vertices(g.adj[x]):
            e = normalize_edge(x, y)
            if e == parent_edge:
                continue
            if disc[y] == 0:
                edge_stack.append(e)
                dfs(y, e)
                low[x] = min(low[x], low[y])
                if low[y] >= disc[x]:
                    comp = []
                    while True:
                        top = edge_stack.pop()
                        comp.append(top)
                        if top == e:
                            break
                    block_edge_sets.append(comp)
            elif disc[y] < disc[x]:
                edge_stack.append(e)
                low[x] = min(low[x], disc[y])

    dfs(0, None)

    out = []
    for comp in block_edge_sets:
        verts = sorted({v for e in comp for v in e})
        pos = {v: i for i, v in enumerate(verts)}
        sub = Graph.from_edges(len(verts), [(pos[u], pos[v]) for u, v in comp])
        out.append(Block(sub, tuple(verts)))
    out.sort(key=lambda b: b.vertices)
    return out


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A random tree on shuffled labels, plus each other pair with
    probability p: connected, and with cut vertices when p is small."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {normalize_edge(label[v], label[rng.randrange(v)]) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, edges)


def test_blocks_match_the_edge_stack_walk():
    # the same block graphs and vertex tuples in the same order, over the
    # census of orders 2..7, Petersen, GP(6..9, 2) and seeded random
    # connected graphs of orders 2..20
    rng = random.Random(20261020)
    graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    graphs += [petersen_graph()] + [generalized_petersen(n, 2) for n in range(6, 10)]
    graphs += [
        random_connected_graph(rng, n, p)
        for n in range(2, 21)
        for p in (0.0, 0.05, 0.1, 0.2, 0.4)
        for _ in range(4)
    ]
    split = 0
    for g in graphs:
        got = blocks(g)
        assert got == _old_blocks(g), g
        split += len(got) > 1
    assert len(graphs) == 995 + 5 + 380
    assert split == 708
