"""Proper edge colorings: constructive algorithms, exact chromatic index,
class predicates, and the handful of vertex-coloring routines the rest of
the package needs.

Colors are integers starting at 1.  An EdgeColoring stores one color per
edge in the graph's canonical edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .budget import Budget, _kept, as_budget
from .errors import ParameterError, RdError, StructureError
from .graphs import (
    Edge,
    Graph,
    _components,
    _read_records,
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
        i = self.graph.edge_index.get(normalize_edge(u, v))
        if i is None:
            raise ParameterError(f"({u}, {v}) is not an edge of the graph")
        return self.colors[i]

    def colors_at(self, v: int) -> set[int]:
        return {
            c
            for (a, b), c in zip(self.graph.edges, self.colors)
            if a == v or b == v
        }

    @cached_property
    def clashes(self) -> int:
        """The mask of the vertices whose star repeats a color."""
        used = [0] * self.graph.n
        clash = 0
        for (a, b), c in zip(self.graph.edges, self.colors):
            bit = 1 << c
            if used[a] & bit:
                clash |= 1 << a
            if used[b] & bit:
                clash |= 1 << b
            used[a] |= bit
            used[b] |= bit
        return clash

    @cached_property
    def num_colors(self) -> int:
        return len(set(self.colors))

    @property
    def max_color(self) -> int:
        return max(self.colors, default=0)

    def is_proper(self) -> bool:
        return not self.clashes


def write_coloring(ec: EdgeColoring) -> str:
    """Serialize as a header "n m k" plus one line "u v c" per edge."""
    g = ec.graph
    lines = [f"{g.n} {g.m} {ec.max_color}"]
    lines.extend(f"{u} {v} {c}" for (u, v), c in zip(g.edges, ec.colors))
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> EdgeColoring:
    """Parse the format `write_coloring` writes (see `graphs._read_records`)."""
    return EdgeColoring(*_read_records(text, colored=True))


# ---------------------------------------------------------------------------
# constructive colorings

def _first_free(at_x, limit: int) -> int:
    """The smallest color in 1..limit missing from `at_x`, the colors at a
    vertex (a set, or a dict keyed by color)."""
    for c in range(1, limit + 1):
        if c not in at_x:
            return c
    raise RdError("no free color at a vertex with an uncolored edge")


def _swap_path(at: list[dict], ecol: dict[Edge, int], x: int, a: int, b: int):
    """Swap colors a and b along the maximal path that leaves x on its
    a-edge and alternates a, b (a Kempe chain)."""
    path = []
    want = a
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
    for u, v in g.edges:
        a = _first_free(at[u], delta)
        b = _first_free(at[v], delta)
        if a != b:
            _swap_path(at, ecol, v, a, b)
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
        c = _first_free(at[u], limit)
        d = _first_free(at[fan[-1]], limit)
        if c != d:
            _swap_path(at, ecol, u, d, c)
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

def _color_fail_first(conflicts, k: int, order, start, budget: Budget):
    """Colors 1..k indexed by item, where the items in `conflicts[i]`
    differ from item i; None if there are none.

    The first len(start) items of `order` take the colors in `start`.
    Every other item keeps the mask of its free colors, those no colored
    item in conflict with it holds.  At each node the uncolored item with
    the fewest free colors is colored next, ties going to the one earliest
    in `order` (DSatur: Brélaz 1979, *New methods to color the vertices of
    a graph*).  It tries its free colors in ascending order, at most one
    above the largest so far, and each assignment spends one budget node.
    An assignment that leaves an uncolored item no free color is undone at
    once (forward checking: Haralick & Elliott 1980, *Increasing tree
    search efficiency for constraint satisfaction problems*)."""
    colors = [0] * len(conflicts)
    free = [(1 << k) - 1] * len(conflicts)
    for i, c in zip(order, start):
        colors[i] = c
        for j in conflicts[i]:
            free[j] &= ~(1 << (c - 1))
    rest = order[len(start) :]
    if not all(free[j] for j in rest):
        return None
    left = len(rest)
    # per colored item: [item, its color, the largest color before it, the
    # items whose free masks it cleared]
    stack = []
    cmax = max(start, default=0)
    while True:
        if not left:
            return colors
        pick, fewest = -1, k + 1
        for j in rest:
            if not colors[j]:
                count = free[j].bit_count()
                if count < fewest:
                    pick, fewest = j, count
        stack.append([pick, 0, cmax, ()])
        while stack:
            frame = stack[-1]
            i, c, below, cleared = frame
            if c:  # undo the color tried last
                for j in cleared:
                    free[j] |= 1 << (c - 1)
                colors[i] = 0
                left += 1
            # the free colors c + 1..top, color c + 1 at bit 0
            top = min(k, below + 1)
            options = free[i] >> c & ((1 << (top - c)) - 1)
            while options:
                step = (options & -options).bit_length()
                options >>= step
                c += step
                budget.spend()
                bit = 1 << (c - 1)
                cleared = [j for j in conflicts[i] if free[j] & bit and not colors[j]]
                if all(free[j] != bit for j in cleared):
                    break
            else:
                stack.pop()
                continue
            for j in cleared:
                free[j] ^= bit
            colors[i] = c
            left -= 1
            frame[1], frame[3] = c, cleared
            cmax = max(below, c)
            break
        else:
            return None


def find_edge_coloring(g: Graph, k: int, budget: Budget | int | None = None):
    """A proper edge coloring with colors 1..k, or None if impossible.

    Complete fail-first search over edges (`_color_fail_first`).  The star
    of one maximum-degree vertex is pre-colored 1, 2, ... (any solution can
    be relabeled to match); among the edges with the fewest free colors,
    the one with the larger endpoint degree, then the smaller edge, goes
    first; new colors enter in ascending order.  The outcome is kept on g
    (`_kept`), so asking the same Graph object again replays it.
    """
    b = as_budget(budget)
    if k < 0:
        raise ParameterError("color count must be nonnegative")
    if g.m == 0:
        return EdgeColoring(g, ())
    delta = max(g.degrees)
    if k < delta:
        return None

    def search():
        anchor = min(v for v in range(g.n) if g.degree(v) == delta)
        star = [i for i, e in enumerate(g.edges) if anchor in e]
        in_star = set(star)
        rest = [i for i in range(g.m) if i not in in_star]
        deg = g.degrees
        rest.sort(key=lambda i: (-max(deg[g.edges[i][0]], deg[g.edges[i][1]]), g.edges[i]))
        at: list[list[int]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            at[u].append(i)
            at[v].append(i)
        conflicts = [
            [j for j in at[u] + at[v] if j != i] for i, (u, v) in enumerate(g.edges)
        ]
        colors = _color_fail_first(
            conflicts, k, star + rest, range(1, len(star) + 1), b
        )
        return None if colors is None else tuple(colors)

    colors = _kept(g, ("edge", k), b, search)
    if colors is None:
        return None
    out = EdgeColoring(g, colors)
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
    vertices (the core) is a tree or unicyclic, so its core degrees sum to at
    most twice its size, and at least one is not a plain cycle, so it has a
    core degree other than 2.  Core degrees are read from `adj[v] & core`."""
    if g.m == 0 or not g.is_connected():
        return False
    delta = max(g.degrees)
    core = sum(1 << v for v in range(g.n) if g.degree(v) == delta)
    adj = [a & core for a in g.adj]
    all_cycles = True
    for mask in _components(adj, core):
        degs = [adj[v].bit_count() for v in mask_vertices(mask)]
        if sum(degs) > 2 * mask.bit_count():
            return False
        if any(d != 2 for d in degs):
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


def structural_class(g: Graph) -> ClassVerdict | None:
    """χ′ of a connected graph with edges when a test needing no search
    settles it, else None; kept on g, and never read by the exact search."""
    if "_structural_class" not in vars(g):
        vars(g)["_structural_class"] = _class_by_tests(g)
    return vars(g)["_structural_class"]


def _class_by_tests(g: Graph) -> ClassVerdict | None:
    delta = max(g.degrees)
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
    return None


def classify_chromatic(g: Graph, budget: Budget | int | None = None) -> ClassVerdict:
    """Chromatic index: `structural_class` per component, else the search."""
    b = as_budget(budget)
    if g.m == 0:
        return ClassVerdict(0, 1, "empty")
    delta = max(g.degrees)
    comps = g.components()
    if len(comps) > 1:
        chi = 0
        for mask in comps:
            sub, _ = g.induced_subgraph(list(mask_vertices(mask)))
            chi = max(chi, classify_chromatic(sub, b).chromatic_index)
        return ClassVerdict(chi, 1 if chi == delta else 2, "components")
    cv = structural_class(g)
    if cv is not None:
        return cv
    chi = chromatic_index_exact(g, b)
    return ClassVerdict(chi, 1 if chi == delta else 2, "exact")


def _color_within(g: Graph, t: int, budget: Budget) -> EdgeColoring:
    """A proper edge coloring of g with at most t colors; t must be known
    to be achievable."""
    if g.m == 0:
        return EdgeColoring(g, ())
    delta = max(g.degrees)
    if delta > t:
        raise RdError("impossible palette for a proper coloring")
    if bipartition(g) is not None:
        return bipartite_color(g)
    if delta + 1 <= t:
        return fan_rotation_color(g)
    if is_complete(g) and g.n % 2 == 0:
        by_edge = {}
        for r, matching in enumerate(round_robin_rounds(g.n), start=1):
            for e in matching:
                by_edge[e] = r
        return EdgeColoring(g, tuple(by_edge[e] for e in g.edges))
    ec = find_edge_coloring(g, t, budget)
    if ec is None:
        raise RdError("palette was promised to be achievable")
    return ec


def chromatic_coloring(
    g: Graph, budget: Budget | int | None = None
) -> tuple[ClassVerdict, EdgeColoring]:
    """Optimal proper edge coloring plus the verdict explaining its size."""
    b = as_budget(budget)
    cv = classify_chromatic(g, b)
    ec = _color_within(g, cv.chromatic_index, b)
    if cv.verdict == 2 and ec.num_colors != cv.chromatic_index:
        raise RdError("class two coloring does not use max degree + 1 colors")
    return cv, ec


# ---------------------------------------------------------------------------
# vertex colorings (needed for criticality tests)

def chromatic_number(g: Graph, budget: Budget | int | None = None) -> int:
    """Exact vertex chromatic number (small graphs only).

    A greedy coloring in descending degree order gives an upper bound; the
    fail-first search (`_color_fail_first`, ties going to the higher degree,
    then the smaller vertex) tries each smaller count from 2 up.  The value
    is kept on g (`_kept`), as `find_edge_coloring` keeps its outcomes."""
    b = as_budget(budget)
    if g.m == 0:
        return 1

    def search():
        nbrs: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges:  # sorted, so each list ascends
            nbrs[u].append(v)
            nbrs[v].append(u)
        order = sorted(range(g.n), key=lambda v: (-len(nbrs[v]), v))
        greedy: dict[int, int] = {}
        for v in order:
            taken = {greedy[w] for w in nbrs[v] if w in greedy}
            greedy[v] = _first_free(taken, len(taken) + 1)
        ub = max(greedy.values())
        for k in range(2, ub):
            if _color_fail_first(nbrs, k, order, (), b) is not None:
                return k
        return ub

    return _kept(g, "chi", b, search)


def _deletions(g: Graph):
    """g without each edge in turn, in edge order, built one at a time."""
    return (Graph(g.n, g.edges[:i] + g.edges[i + 1 :]) for i in range(g.m))


def _every_deletion_lowers(g: Graph, chi: int, budget: Budget) -> bool:
    """Whether deleting any single edge lowers g's chromatic number chi,
    found by coloring the deletions alone, up to the first that keeps chi,
    with no use of the degrees.  Kept on g (`_kept`), so the criticality
    bound and the survey's test of it color the deletions once."""
    return _kept(
        g,
        ("critical", chi),
        budget,
        lambda: all(chromatic_number(rest, budget) < chi for rest in _deletions(g)),
    )


def color_critical_value(g: Graph, budget: Budget | int | None = None) -> int | None:
    """The chromatic number χ, when deleting any single edge lowers it; else
    None.  Such a graph has one component with edges, which is vertex-critical,
    so every vertex of positive degree has degree at least χ − 1: only a graph
    passing that test colors its deletions (`_every_deletion_lowers`)."""
    b = as_budget(budget)
    if g.m == 0:
        return None
    chi = chromatic_number(g, b)
    if any(0 < d < chi - 1 for d in g.degrees):
        return None
    return chi if _every_deletion_lowers(g, chi, b) else None


def is_chromatic_index_minimal(g: Graph, budget: Budget | int | None = None) -> bool:
    """True when g has two or more edges and deleting any one lowers χ′.

    A star (maybe with isolated vertices) is; no other Class 1 graph is, as
    deleting e lowers χ′ = Δ only when e meets every vertex of degree Δ.  A
    minimal Class 2 graph has one component with edges, which is Δ-critical,
    so each vertex of positive degree has two or more neighbours of degree Δ
    (Vizing's adjacency lemma; Fiorini & Wilson 1977, *Edge-colourings of
    graphs*).  Only a Class 2 graph passing that test classifies its
    deletions, up to the first that stays in Class 2."""
    b = as_budget(budget)
    if g.m < 2:
        return False
    delta = max(g.degrees)
    if delta == g.m:
        return True
    if classify_chromatic(g, b).verdict == 1:
        return False
    top = sum(1 << v for v, d in enumerate(g.degrees) if d == delta)
    if any(a and (a & top).bit_count() < 2 for a in g.adj):
        return False
    return all(
        classify_chromatic(rest, b).chromatic_index == delta for rest in _deletions(g)
    )
