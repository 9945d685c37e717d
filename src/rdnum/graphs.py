"""Immutable simple graphs with bitmask adjacency, plus interchange formats,
generators, and structural decompositions.

Vertices are integers 0..n-1 and an edge is a pair (u, v) with u < v.  The
vertex count is capped at 62 so that every graph fits the short graph6 form
and every vertex subset fits one machine word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, ParameterError, SizeError, StructureError

MAX_VERTICES = 62

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def mask_vertices(mask: int):
    """Yield the set bits of a vertex mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj, start: int) -> int:
    """Bitmask of the vertices reachable from `start`; adj[v] is the neighbor
    mask of v.  Breadth-first on masks: each step ORs together the adjacency
    of the whole frontier and keeps the vertices not seen before."""
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


def _reaches(adj, u: int, v: int) -> bool:
    """Whether v is reachable from u: `_reach` from u, stopped at the first
    frontier that holds v."""
    target = 1 << v
    seen = frontier = 1 << u
    while frontier and not seen & target:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return bool(seen & target)


def _components(adj, left: int) -> list[int]:
    """Masks of the components that meet the vertex mask `left`, ordered by
    smallest member; adj[v] is the neighbor mask of v."""
    out = []
    while left:
        comp = _reach(adj, (left & -left).bit_length() - 1)
        out.append(comp)
        left &= ~comp
    return out


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with a frozen, lexicographically sorted edge set."""

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise ParameterError("a graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise SizeError(f"at most {MAX_VERTICES} vertices are supported, got {n}")
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge {e} has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            e = normalize_edge(u, v)
            if e in seen:
                raise ParameterError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def neighbors(self, v: int) -> list[int]:
        return list(mask_vertices(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edge_index

    def component_mask(self, start: int) -> int:
        """Bitmask of the component containing `start`."""
        return _reach(self.adj, start)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return self.component_mask(0) == (1 << self.n) - 1

    def components(self) -> list[int]:
        """Vertex masks of the connected components, ordered by smallest member."""
        return _components(self.adj, (1 << self.n) - 1)

    def induced_subgraph(self, vertices) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `vertices` plus the new-index -> old-id map."""
        keep = sorted(set(vertices))
        if not keep:
            raise ParameterError("induced subgraph needs at least one vertex")
        pos = {v: i for i, v in enumerate(keep)}
        sub = [
            (pos[u], pos[v])
            for u, v in self.edges
            if u in pos and v in pos
        ]
        return Graph.from_edges(len(keep), sub), tuple(keep)


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    min_degree: int
    max_degree: int
    degree_sequence: tuple[int, ...]
    average_degree: float
    connected: bool
    bipartite: bool
    regular: bool


def basic_stats(g: Graph) -> GraphStats:
    degs = g.degrees
    return GraphStats(
        n=g.n,
        m=g.m,
        min_degree=min(degs),
        max_degree=max(degs),
        degree_sequence=tuple(sorted(degs, reverse=True)),
        average_degree=2 * g.m / g.n,
        connected=g.is_connected(),
        bipartite=bipartition(g) is not None,
        regular=min(degs) == max(degs),
    )


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two vertex masks forming a bipartition, or None if an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in mask_vertices(g.adj[x]):
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    left = sum(1 << v for v in range(g.n) if color[v] == 0)
    return left, ((1 << g.n) - 1) ^ left


def is_tree(g: Graph) -> bool:
    return g.is_connected() and g.m == g.n - 1


def is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and g.is_connected() and all(d == 2 for d in g.degrees)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


# ---------------------------------------------------------------------------
# graph6 interchange (short form only, n <= 62)

def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string.

    The first byte is n + 63; the remaining bytes pack the upper triangle of
    the adjacency matrix in column order x(0,1), x(0,2), x(1,2), x(0,3), ...,
    six bits per byte, each byte offset by 63.
    """
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 string")
    for i, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise FormatError(
                f"byte {i}: character {ch!r} outside the graph6 range 63..126"
            )
    if ord(s[0]) == 126:
        raise FormatError("byte 0: long-form graph6 (order above 62) is not supported")
    n = ord(s[0]) - 63
    if n < 1:
        raise FormatError("byte 0: graph of order 0")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) != 1 + nbytes:
        raise FormatError(
            f"byte {len(s)}: expected {1 + nbytes} bytes for order {n}, got {len(s)}"
        )
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError(f"byte {len(s) - 1}: nonzero padding bits")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    if g.n > MAX_VERTICES:
        raise SizeError(f"graph6 short form stops at {MAX_VERTICES} vertices")
    adj = g.adj
    bits = [adj[v] >> u & 1 for v in range(1, g.n) for u in range(v)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# plain edge-list interchange

def _read_records(text: str, colored: bool) -> tuple[Graph, tuple[int, ...]]:
    """Parse a header "n m", then m lines "u v" (0-based endpoints), into
    the graph and its edges' colors in edge order.  A colored file has the
    header "n m k" and lines "u v c" with each color c in 1..k; an uncolored
    one gets color 0 on every edge.  Each rejection names its line."""
    head_form, row_form = ("n m k", "u v c") if colored else ("n m", "u v")
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"line 1: missing '{head_form}' header")
    head = lines[0].split()
    if len(head) != len(head_form.split()):
        raise FormatError(f"line 1: expected exactly '{head_form}'")
    try:
        n, m, *k = (int(x) for x in head)
    except ValueError:
        raise FormatError("line 1: header fields must be integers") from None
    if m < 0 or (k and k[0] < 0):
        raise FormatError("line 1: negative header field")
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"line 1: order {n} outside 1..{MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise FormatError(
            f"line {len(lines)}: header announces {m} edges, file has {len(lines) - 1}"
        )
    by_edge: dict[Edge, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if len(fields) != len(row_form.split()):
            raise FormatError(f"line {lineno}: expected exactly '{row_form}'")
        try:
            u, v, *c = (int(x) for x in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: fields must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint outside 0..{n - 1}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        if c and not 1 <= c[0] <= k[0]:
            raise FormatError(f"line {lineno}: color {c[0]} outside 1..{k[0]}")
        e = normalize_edge(u, v)
        if e in by_edge:
            raise FormatError(f"line {lineno}: duplicate edge {e}")
        by_edge[e] = c[0] if c else 0
    g = Graph.from_edges(n, by_edge)
    return g, tuple(by_edge[e] for e in g.edges)


def read_edge_list(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" (0-based endpoints)."""
    return _read_records(text, colored=False)[0]


def write_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to the n - 1 leaves."""
    if n < 2:
        raise ParameterError("star needs at least two vertices")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def complete_multipartite(parts) -> Graph:
    """Complete multipartite graph; part i occupies a consecutive vertex block."""
    sizes = list(parts)
    if not sizes:
        raise ParameterError("at least one part is required")
    if any(s < 1 for s in sizes):
        raise ParameterError("every part must have at least one vertex")
    n = sum(sizes)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    edges = []
    for i, (a0, a1) in enumerate(bounds):
        for b0, b1 in bounds[i + 1 :]:
            edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return Graph.from_edges(n, edges)


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner five-cycle with step 2
    return Graph.from_edges(10, edges)


def complement(g: Graph) -> Graph:
    adj = g.adj
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not adj[u] >> v & 1
    ]
    return Graph.from_edges(g.n, edges)


# ---------------------------------------------------------------------------
# block decomposition

@dataclass(frozen=True)
class Block:
    """One block (biconnected component) with its original vertex ids.

    graph vertex i corresponds to vertices[i] in the parent graph.
    """

    graph: Graph
    vertices: tuple[int, ...]


def blocks(g: Graph) -> list[Block]:
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
