"""Edge connectivity: local values by max-flow, and the global values
built from them.

Local edge connectivity between u and v is the number of unit-capacity
augmenting paths from u to v on the bidirected graph; by Menger's theorem
it equals the size of a minimum u-v edge cut.  `edge_connectivity` is the
minimum of the local values and `upper_edge_connectivity` the maximum.
"""

from __future__ import annotations

from .errors import ParameterError, StructureError
from .graphs import Graph


def local_edge_connectivity(g: Graph, u: int, v: int) -> int:
    """Minimum number of edges whose removal separates u from v.

    Each edge is a pair of opposite arcs of capacity 1, so an arc's
    residual capacity is 0, 1 or 2, and the two arcs of an edge add up to
    2.  Per vertex x, `some[x]` masks the heads of x's arcs with capacity
    left and `full[x]` those whose capacity is 2; an arc y -> x has
    capacity left exactly when x -> y is not full.  A shortest augmenting
    path is found breadth-first on masks, one frontier per layer, and traced
    back from v through the layers.  No more paths than u's or v's degree
    can exist, so the search stops once that many are found."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertices must lie in 0..{g.n - 1}")
    if u == v:
        raise ParameterError("local edge connectivity needs two distinct vertices")
    adj = g.adj
    some = list(adj)
    full = [0] * g.n
    target = 1 << v
    most = min(adj[u].bit_count(), adj[v].bit_count())
    value = 0
    while value < most:
        layers = [1 << u]
        seen = frontier = 1 << u
        while not seen & target:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= some[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                return value
            seen |= frontier
            layers.append(frontier)
        y = v
        for layer in reversed(layers[:-1]):
            low = layer & adj[y] & ~full[y]
            x = (low & -low).bit_length() - 1
            if full[x] >> y & 1:  # x -> y from 2 to 1, y -> x from 0 to 1
                full[x] ^= 1 << y
                some[y] |= 1 << x
            else:  # x -> y from 1 to 0, y -> x from 1 to 2
                some[x] ^= 1 << y
                full[y] |= 1 << x
            y = x
        value += 1
    return value


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
        best = min(best, local_edge_connectivity(g, 0, v))
        if best <= 1:
            break
    return best


def upper_edge_connectivity(g: Graph) -> int:
    """Maximum over vertex pairs of the local edge connectivity.

    A pair's value is at most the smaller of its two degrees, so pairs are
    tried in descending order of that cap, and the search stops once no
    remaining pair can beat the best value found.  The value is kept on
    g: asking the same Graph object again runs no max-flow.
    """
    if "_lambda_plus" in vars(g):
        return vars(g)["_lambda_plus"]
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
        best = max(best, local_edge_connectivity(g, u, v))
    vars(g)["_lambda_plus"] = best
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

