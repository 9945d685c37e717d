"""Edge connectivity: exact local values with certifying paths and cuts.

Local edge connectivity between u and v is computed by unit-capacity
augmenting paths on the bidirected graph.  `local_edge_connectivity`
returns both witnesses promised by Menger's theorem: a family of pairwise
edge-disjoint u-v paths and an edge cut of the same size, and raises RdError
if they disagree.  The global values `edge_connectivity` and
`upper_edge_connectivity` read only the number of augmenting paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, RdError, StructureError
from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class CutValue:
    """Certified local edge connectivity.

    value        size of a minimum u-v edge cut
    paths        `value` pairwise edge-disjoint u-v paths (vertex sequences)
    cut_edges    a u-v disconnecting edge set of size `value`
    side         vertex mask of the u-side after deleting cut_edges
    """

    u: int
    v: int
    value: int
    paths: tuple[tuple[int, ...], ...]
    cut_edges: tuple[Edge, ...]
    side: int


def _max_flow(g: Graph, u: int, v: int) -> tuple[int, list[dict[int, int]]]:
    """The number of unit-capacity augmenting paths found from u to v, and
    the residual capacities they leave: residual[x] maps neighbor y to the
    remaining capacity of arc x->y (0, 1 or 2)."""
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
    return value, residual


def local_edge_connectivity(g: Graph, u: int, v: int) -> CutValue:
    """Minimum number of edges whose removal separates u from v."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertices must lie in 0..{g.n - 1}")
    if u == v:
        raise ParameterError("local edge connectivity needs two distinct vertices")
    value, residual = _max_flow(g, u, v)

    # Net flow on edge (a, b): +1 if used a->b, -1 if used b->a, else 0.
    out_flow: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for a, b in g.edges:
        net = 1 - residual[a][b]  # in {-1, 0, 1}
        if net == 1:
            out_flow[a][b] = out_flow[a].get(b, 0) + 1
        elif net == -1:
            out_flow[b][a] = out_flow[b].get(a, 0) + 1

    paths = []
    for _ in range(value):
        walk = [u]
        seen_at = {u: 0}
        x = u
        while x != v:
            y = next(iter(out_flow[x]))
            if out_flow[x][y] == 1:
                del out_flow[x][y]
            else:
                out_flow[x][y] -= 1
            x = y
            if x in seen_at:
                # erase the flow cycle we just walked; its arcs are consumed
                walk = walk[: seen_at[x] + 1]
                seen_at = {w: i for i, w in enumerate(walk)}
            else:
                walk.append(x)
                seen_at[x] = len(walk) - 1
        paths.append(tuple(walk))

    # Min cut: edges leaving the set of vertices residual-reachable from u.
    reach = 1 << u
    stack = [u]
    while stack:
        x = stack.pop()
        for y, cap in residual[x].items():
            if cap and not reach >> y & 1:
                reach |= 1 << y
                stack.append(y)
    cut = tuple(
        e for e in g.edges if (reach >> e[0] & 1) != (reach >> e[1] & 1)
    )

    if not len(cut) == value == len(paths):
        raise RdError("max-flow/min-cut certificates disagree")
    used = set()
    for p in paths:
        if p[0] != u or p[-1] != v:
            raise RdError(f"a flow path does not run from {u} to {v}")
        for a, b in zip(p, p[1:]):
            e = normalize_edge(a, b)
            if e not in g.edge_index or e in used:
                raise RdError("paths are not edge-disjoint")
            used.add(e)
    return CutValue(u, v, value, tuple(paths), cut, reach)


def edge_connectivity(g: Graph) -> int:
    """Global edge connectivity: the minimum of the local values.

    Fixing one endpoint at vertex 0 suffices because some minimum cut
    separates 0 from somebody.
    """
    if g.n < 2:
        raise StructureError("edge connectivity needs at least two vertices")
    if not g.is_connected():
        return 0
    best = min(g.degrees)
    if best <= 1:
        return best
    for v in range(1, g.n):
        best = min(best, _max_flow(g, 0, v)[0])
        if best <= 1:
            break
    return best


def upper_edge_connectivity(g: Graph) -> int:
    """Maximum over vertex pairs of the local edge connectivity.

    A pair's value is at most the smaller of its two degrees, so pairs are
    tried in descending order of that cap, and the search stops once no
    remaining pair can beat the best value found.
    """
    if g.n < 2:
        raise StructureError("needs at least two vertices")
    if not g.is_connected():
        raise StructureError("defined only for connected graphs")
    deg = g.degrees
    pairs = sorted(
        ((min(deg[u], deg[v]), u, v) for u in range(g.n) for v in range(u + 1, g.n)),
        key=lambda pair: -pair[0],
    )
    best = 0
    for cap, u, v in pairs:
        if cap <= best:
            break
        best = max(best, _max_flow(g, u, v)[0])
    return best


def low_degree_deficiency(g: Graph, k: int) -> int:
    """Sum of k - d(x) over vertices with degree at most k."""
    return sum(k - d for d in g.degrees if d <= k)


def dense_pair_lower_bound(g: Graph) -> int:
    """Largest value of the edge-count criterion forcing a highly connected pair.

    If a graph of order n >= k + 2 has more than
    ((k + 1) (n - 1) - sigma) / 2 edges, where sigma sums the degree
    deficits k - d(x) over vertices of degree at most k, then some vertex
    pair has k + 1 edge-disjoint paths between it.  Returns the largest
    k + 1 established this way, and 1 when no k qualifies (any edge gives
    one path).
    """
    if g.n < 2:
        raise StructureError("needs at least two vertices")
    best = 1
    for k in range(1, g.n - 1):
        sigma = low_degree_deficiency(g, k)
        if 2 * g.m > (k + 1) * (g.n - 1) - sigma:
            best = k + 1
    return best

