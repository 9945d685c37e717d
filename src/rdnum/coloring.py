"""Proper edge colorings: constructive algorithms, exact chromatic index,
class predicates, and the handful of vertex-coloring routines the rest of
the package needs.

Colors are integers starting at 1.  An EdgeColoring stores one color per
edge in the graph's canonical edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .budget import Budget, as_budget
from .errors import FormatError, ParameterError, RdError, StructureError
from .graphs import (
    Edge,
    Graph,
    bipartition,
    is_complete,
    mask_vertices,
    normalize_edge,
)


@dataclass(frozen=True)
class EdgeColoring:
    """Colors assigned edge by edge, parallel to graph.edges."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.graph.m:
            raise ParameterError(
                f"{len(self.colors)} colors for {self.graph.m} edges"
            )
        if any(not isinstance(c, int) or c < 1 for c in self.colors):
            raise ParameterError("colors must be integers starting at 1")

    def color_of(self, u: int, v: int) -> int:
        return self.colors[self.graph.edge_index[normalize_edge(u, v)]]

    def colors_at(self, v: int) -> set[int]:
        return {
            c
            for (a, b), c in zip(self.graph.edges, self.colors)
            if a == v or b == v
        }

    @cached_property
    def num_colors(self) -> int:
        return len(set(self.colors))

    @property
    def max_color(self) -> int:
        return max(self.colors, default=0)

    def is_proper(self) -> bool:
        seen: list[set[int]] = [set() for _ in range(self.graph.n)]
        for (u, v), c in zip(self.graph.edges, self.colors):
            if c in seen[u] or c in seen[v]:
                return False
            seen[u].add(c)
            seen[v].add(c)
        return True


def write_coloring(ec: EdgeColoring) -> str:
    """Serialize as a header "n m k" plus one line "u v c" per edge."""
    g = ec.graph
    lines = [f"{g.n} {g.m} {ec.max_color}"]
    lines.extend(f"{u} {v} {c}" for (u, v), c in zip(g.edges, ec.colors))
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> EdgeColoring:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("line 1: missing 'n m k' header")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError("line 1: expected exactly 'n m k'")
    try:
        n, m, k = (int(x) for x in head)
    except ValueError:
        raise FormatError("line 1: header fields must be integers") from None
    if m < 0 or k < 0:
        raise FormatError("line 1: negative header field")
    if len(lines) - 1 != m:
        raise FormatError(
            f"line {len(lines)}: header announces {m} edges, file has {len(lines) - 1}"
        )
    by_edge: dict[Edge, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected exactly 'u v c'")
        try:
            u, v, c = (int(x) for x in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: fields must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint outside 0..{n - 1}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        if not 1 <= c <= k:
            raise FormatError(f"line {lineno}: color {c} outside 1..{k}")
        e = normalize_edge(u, v)
        if e in by_edge:
            raise FormatError(f"line {lineno}: duplicate edge {e}")
        by_edge[e] = c
    g = Graph.from_edges(n, by_edge.keys())
    return EdgeColoring(g, tuple(by_edge[e] for e in g.edges))


# ---------------------------------------------------------------------------
# constructive colorings

def bipartite_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring of a bipartite graph with max-degree many colors.

    Inserts edges one at a time; a clash between the endpoint's free colors
    is repaired by swapping the two colors along an alternating path, which
    in a bipartite graph can never loop back to the other endpoint.
    """
    if bipartition(g) is None:
        raise StructureError("graph is not bipartite")
    if g.m == 0:
        return EdgeColoring(g, ())
    delta = max(g.degrees)
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # color -> neighbor
    ecol: dict[Edge, int] = {}

    def first_free(x: int) -> int:
        for c in range(1, delta + 1):
            if c not in at[x]:
                return c
        raise AssertionError("no free color at a vertex with an uncolored edge")

    for u, v in g.edges:
        a = first_free(u)
        b = first_free(v)
        if a != b:
            x, want = v, a
            path = []
            while want in at[x]:
                y = at[x][want]
                path.append((x, y, want))
                x, want = y, (b if want == a else a)
            for p, q, col in path:
                del at[p][col]
                del at[q][col]
            for p, q, col in path:
                new = b if col == a else a
                at[p][new] = q
                at[q][new] = p
                ecol[normalize_edge(p, q)] = new
        ecol[(u, v)] = a
        at[u][a] = v
        at[v][a] = u

    out = EdgeColoring(g, tuple(ecol[e] for e in g.edges))
    if not out.is_proper() or out.max_color > delta:
        raise RdError("bipartite coloring is not proper within max degree colors")
    return out


def fan_rotation_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max-degree + 1 colors.

    Classic fan-and-path recoloring: grow a maximal fan around one endpoint
    of the uncolored edge, swap two colors along an alternating path, then
    rotate a fan prefix so the freed color lands on the new edge.
    """
    if g.m == 0:
        return EdgeColoring(g, ())
    limit = max(g.degrees) + 1
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # color -> neighbor
    ecol: dict[Edge, int] = {}

    def first_free(x: int) -> int:
        for c in range(1, limit + 1):
            if c not in at[x]:
                return c
        raise AssertionError("vertex saturated past its degree")

    for u, v0 in g.edges:
        fan = [v0]
        infan = {v0}
        while True:
            tail = fan[-1]
            ext = None
            for c, w in at[u].items():
                if w not in infan and c not in at[tail]:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            infan.add(ext)
        c = first_free(u)
        d = first_free(fan[-1])
        if c != d:
            # swap c and d along the maximal path leaving u on its d-edge
            x, want = u, d
            path = []
            while want in at[x]:
                y = at[x][want]
                path.append((x, y, want))
                x, want = y, (c if want == d else d)
            for p, q, col in path:
                del at[p][col]
                del at[q][col]
            for p, q, col in path:
                new = c if col == d else d
                at[p][new] = q
                at[q][new] = p
                ecol[normalize_edge(p, q)] = new
        # first fan vertex with d free whose prefix is still a fan
        j = None
        for i, x in enumerate(fan):
            if i > 0:
                cc = ecol.get(normalize_edge(u, fan[i]))
                if cc is None or cc in at[fan[i - 1]]:
                    break
            if d not in at[x]:
                j = i
                break
        if j is None:
            raise RdError("no rotation target in the fan")
        shifted = [
            (fan[t], ecol[normalize_edge(u, fan[t + 1])]) for t in range(j)
        ]
        shifted.append((fan[j], d))
        for t in range(j + 1):
            e = normalize_edge(u, fan[t])
            old = ecol.pop(e, None)
            if old is not None:
                del at[u][old]
                del at[fan[t]][old]
        for x, cnew in shifted:
            e = normalize_edge(u, x)
            ecol[e] = cnew
            at[u][cnew] = x
            at[x][cnew] = u

    out = EdgeColoring(g, tuple(ecol[e] for e in g.edges))
    if not out.is_proper() or out.max_color > limit:
        raise RdError("fan coloring is not proper within max degree + 1 colors")
    return out


def round_robin_rounds(q: int) -> list[list[Edge]]:
    """Split the complete graph on q vertices (q even) into q - 1 perfect
    matchings by the circle method: vertex q - 1 sits fixed while the others
    rotate."""
    if q < 2 or q % 2:
        raise ParameterError("a one-factorization needs an even vertex count")
    rounds = []
    for r in range(q - 1):
        matching = [normalize_edge(q - 1, r)]
        for j in range(1, q // 2):
            matching.append(normalize_edge((r + j) % (q - 1), (r - j) % (q - 1)))
        matching.sort()
        rounds.append(matching)
    return rounds


# ---------------------------------------------------------------------------
# exact chromatic index

def find_edge_coloring(g: Graph, k: int, budget: Budget | int | None = None):
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
    order = star + rest
    m = g.m
    colors = [0] * m
    used = [0] * g.n  # bit c-1 set when color c appears at the vertex
    for pos, i in enumerate(star):
        u, v = g.edges[i]
        colors[i] = pos + 1
        used[u] |= 1 << pos
        used[v] |= 1 << pos
    n_star = len(star)
    cmax_at = [0] * (m + 1)
    cmax_at[n_star] = n_star
    tried = [0] * m
    pos = n_star
    while pos < m:
        i = order[pos]
        u, v = g.edges[i]
        blocked = used[u] | used[v]
        top = min(k, cmax_at[pos] + 1)
        c = tried[pos] + 1
        while c <= top and blocked >> (c - 1) & 1:
            c += 1
        if c > top:
            tried[pos] = 0
            pos -= 1
            if pos < n_star:
                return None
            j = order[pos]
            a, bb = g.edges[j]
            old = colors[j]
            used[a] ^= 1 << (old - 1)
            used[bb] ^= 1 << (old - 1)
            tried[pos] = old
            continue
        b.spend()
        colors[i] = c
        tried[pos] = c
        used[u] |= 1 << (c - 1)
        used[v] |= 1 << (c - 1)
        cmax_at[pos + 1] = max(cmax_at[pos], c)
        pos += 1
    out = EdgeColoring(g, tuple(colors))
    if not out.is_proper() or out.max_color > k:
        raise RdError(f"search produced an improper coloring or more than {k} colors")
    return out


def chromatic_index_exact(g: Graph, budget: Budget | int | None = None) -> int:
    """Chromatic index by pure search: try max degree, else max degree + 1."""
    b = as_budget(budget)
    if g.m == 0:
        return 0
    delta = max(g.degrees)
    if find_edge_coloring(g, delta, b) is not None:
        return delta
    return delta + 1


# ---------------------------------------------------------------------------
# class predicates that avoid search

def is_overfull(g: Graph) -> bool:
    """More edges than max-degree many matchings could cover."""
    if g.m == 0:
        return False
    return g.m > max(g.degrees) * (g.n // 2)


def regular_parity_class2_test(g: Graph) -> bool:
    """Regular graphs of odd order need an extra color: each color class
    misses at least one vertex."""
    degs = g.degrees
    return g.n % 2 == 1 and degs[0] >= 1 and min(degs) == max(degs)


def fournier_class1_test(g: Graph) -> bool:
    """Sufficient condition for chromatic index = max degree on a connected
    graph: every component of the subgraph induced by the maximum-degree
    vertices is a tree or unicyclic, and at least one such component is not
    a plain cycle."""
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


def regular_even_class1_test(g: Graph) -> bool:
    """Sufficient conditions for a regular graph of even order to have
    chromatic index equal to its degree: either degree at least 6/7 of the
    order, or degree in {n-3, n-4, n-5} above the threshold
    2 * floor((n/2 + 1)/2) - 1."""
    degs = g.degrees
    d = degs[0]
    if min(degs) != max(degs) or d < 1 or g.n % 2:
        return False
    n = g.n
    if 7 * d >= 6 * n:
        return True
    return d in (n - 3, n - 4, n - 5) and d >= 2 * ((n // 2 + 1) // 2) - 1


@dataclass(frozen=True)
class ClassVerdict:
    """Chromatic index together with how it was settled."""

    chromatic_index: int
    verdict: int  # 1 when equal to max degree, else 2
    method: str


def classify_chromatic(
    g: Graph,
    budget: Budget | int | None = None,
    allow_search: bool = True,
) -> ClassVerdict | None:
    """Chromatic index with cheap certificates first, search as a last resort.

    With allow_search=False, returns None instead of falling back to the
    exact search, so callers can decide whether the search is worth running.
    """
    b = as_budget(budget)
    if g.m == 0:
        return ClassVerdict(0, 1, "empty")
    delta = max(g.degrees)
    comps = g.components()
    if len(comps) > 1:
        chi = 0
        for mask in comps:
            sub, _ = g.induced_subgraph(list(mask_vertices(mask)))
            part = classify_chromatic(sub, b, allow_search)
            if part is None:
                return None
            chi = max(chi, part.chromatic_index)
        return ClassVerdict(chi, 1 if chi == delta else 2, "components")
    if is_complete(g):
        if g.n % 2 == 0:
            return ClassVerdict(delta, 1, "complete-even")
        return ClassVerdict(delta + 1, 2, "complete-odd")
    if bipartition(g) is not None:
        return ClassVerdict(delta, 1, "bipartite")
    if is_overfull(g):
        return ClassVerdict(delta + 1, 2, "overfull")
    if fournier_class1_test(g):
        return ClassVerdict(delta, 1, "fournier")
    if regular_even_class1_test(g):
        return ClassVerdict(delta, 1, "regular-even")
    if not allow_search:
        return None
    chi = chromatic_index_exact(g, b)
    return ClassVerdict(chi, 1 if chi == delta else 2, "exact")


def chromatic_coloring(
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


# ---------------------------------------------------------------------------
# vertex colorings (needed for criticality tests)

def _vertex_colorable(g: Graph, k: int, order: list[int], budget: Budget) -> bool:
    assign = [0] * g.n
    tried = [0] * g.n
    cmax_at = [0] * (g.n + 1)
    pos = 0
    while pos < g.n:
        v = order[pos]
        top = min(k, cmax_at[pos] + 1)
        c = tried[pos] + 1
        while c <= top:
            if all(assign[w] != c for w in mask_vertices(g.adj[v])):
                break
            c += 1
        if c > top:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return False
            w = order[pos]
            tried[pos] = assign[w]
            assign[w] = 0
            continue
        budget.spend()
        assign[v] = c
        tried[pos] = c
        cmax_at[pos + 1] = max(cmax_at[pos], c)
        pos += 1
    return True


def chromatic_number(g: Graph, budget: Budget | int | None = None) -> int:
    """Exact vertex chromatic number (small graphs only)."""
    b = as_budget(budget)
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy: dict[int, int] = {}
    for v in order:
        taken = {greedy[w] for w in g.neighbors(v) if w in greedy}
        c = 1
        while c in taken:
            c += 1
        greedy[v] = c
    ub = max(greedy.values())
    for k in range(2, ub):
        if _vertex_colorable(g, k, order, b):
            return k
    return ub


def color_critical_value(g: Graph, budget: Budget | int | None = None) -> int | None:
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


def is_chromatic_index_minimal(g: Graph, budget: Budget | int | None = None) -> bool:
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
