"""Rainbow disconnection numbers.

The rainbow disconnection number of a nontrivial connected graph is the
least number of colors in an edge coloring under which every vertex pair
has a separating edge cut whose edges carry pairwise distinct colors.
This module provides cut certificates, coloring verification, a table
of certified bounds, an exact branch-and-prune solver, optimal coloring
constructions for several graph families, and two extremal constructions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

from .budget import Budget, as_budget
from .coloring import (
    EdgeColoring,
    _color_within,
    chromatic_index_exact,
    classify_chromatic,
    color_critical_value,
    is_chromatic_index_minimal,
    round_robin_rounds,
    structural_class,
)
from .connectivity import dense_pair_lower_bound, upper_edge_connectivity
from .errors import ParameterError, RdError, SizeError, StructureError, Undecided
from .graphs import (
    Edge,
    Graph,
    bipartition,
    blocks,
    complete_graph,
    is_cycle_graph,
    is_tree,
    mask_vertices,
    normalize_edge,
)

DEFAULT_SEARCH_EDGE_CAP = 15


# ---------------------------------------------------------------------------
# rainbow cut certificates

@dataclass(frozen=True)
class RainbowCutCertificate:
    """One vertex pair plus a side of a bipartition whose crossing edges
    carry pairwise distinct colors.  Removing those edges separates u
    (inside `side`) from v (outside)."""

    u: int
    v: int
    side: int  # vertex bitmask containing u but not v
    crossing: tuple[tuple[Edge, int], ...]  # (edge, color), sorted by edge


def certificate_is_valid(ec: EdgeColoring, cert: RainbowCutCertificate) -> bool:
    g = ec.graph
    if not (0 <= cert.u < g.n and 0 <= cert.v < g.n) or cert.u == cert.v:
        return False
    if not cert.side >> cert.u & 1 or cert.side >> cert.v & 1:
        return False
    if cert.side >> g.n:
        return False
    expect = tuple(
        (e, ec.colors[i])
        for i, e in enumerate(g.edges)
        if (cert.side >> e[0] & 1) != (cert.side >> e[1] & 1)
    )
    if tuple(sorted(cert.crossing)) != expect:
        return False
    cols = [c for _, c in expect]
    return len(cols) == len(set(cols))


def certificate_to_text(cert: RainbowCutCertificate) -> str:
    side = " ".join(str(v) for v in mask_vertices(cert.side))
    cut = " ".join(f"({a},{b},{c})" for (a, b), c in cert.crossing)
    return f"pair {cert.u} {cert.v} | side {side} | cut {cut}"


def _bipartitions(
    g: Graph, inside: int, outside: int, colors, limit: int, budget: Budget
):
    """Yield (side, crossing-edge mask) for every vertex side that holds mask
    `inside`, avoids mask `outside`, and is crossed by at most `limit` edges
    of pairwise distinct `colors`; bit i of the edge mask stands for edge id
    i.  A depth-first search places the fixed vertices ascending, each on
    its own side, then the free ones highest first, outside before inside,
    so sides come in increasing mask order; it cuts a branch once its
    crossing edges break a condition, spending one node per placement.

    A branch carries `ein` and `eout`, the masks of the edges at the
    vertices placed inside and outside (`Graph.incidence`).  Placing x
    inside crosses its edges in `eout`, placing it outside those in `ein`,
    and a side's crossing mask is `ein & eout`; only the newly crossing
    edges' colors are checked.  Placements are charged in batches, before
    each yield and at the end, or at once when they would pass the budget."""
    inc = g.incidence
    fixed = inside | outside
    order = [x for x in range(g.n) if fixed >> x & 1]
    first_free = len(order)
    order += [x for x in range(g.n - 1, -1, -1) if not fixed >> x & 1]
    last = g.n
    room = budget.remaining
    charged = 0  # placements made since the last charge
    stack = [(0, 0, 0, 0, 0, 0)]  # depth, side, ein, eout, colors used, count
    while stack:
        d, side, ein, eout, used, count = stack.pop()
        if d == last:
            if charged:
                budget.spend(charged)
                charged = 0
            yield side, ein & eout
            room = budget.remaining
            continue
        x = order[d]
        free = d >= first_free
        charged += 1 + free  # a free x goes inside and outside
        if charged > room:  # one charge each would raise at this vertex
            budget.spend(room + 1)
        edges = inc[x]
        if free or inside >> x & 1:
            new = edges & eout  # pushed inside first, popped last
            k = count + new.bit_count()
            if k <= limit:
                u = used
                while new:
                    low = new & -new
                    bit = 1 << colors[low.bit_length() - 1]
                    if u & bit:
                        break
                    u |= bit
                    new ^= low
                else:
                    stack.append((d + 1, side | 1 << x, ein | edges, eout, u, k))
        if free or outside >> x & 1:
            new = edges & ein
            k = count + new.bit_count()
            if k <= limit:
                u = used
                while new:
                    low = new & -new
                    bit = 1 << colors[low.bit_length() - 1]
                    if u & bit:
                        break
                    u |= bit
                    new ^= low
                else:
                    stack.append((d + 1, side, ein, eout | edges, u, k))
    if charged:
        budget.spend(charged)


def _rainbow_cuts(ec: EdgeColoring, pairs, budget: Budget):
    """Yield (u, v, side, crossing) per vertex pair (u, v) of `pairs`: a
    side holding u but not v whose crossing edges carry pairwise distinct
    colors, and their (edge, color) pairs sorted by edge; or (u, v, None,
    None) when no side is rainbow.

    If an arbitrary edge set works, the boundary of the u-component after
    its removal is a bipartition cut contained in it, so searching
    bipartitions is complete.  The star of u and then the complement of the
    star of v come first: a star is rainbow when its vertex is outside the
    coloring's `clashes`, and its crossing is built once per call.  After
    that, the first rainbow side in increasing mask order, found by a
    pruned enumeration that spends `budget` nodes (Undecided when it runs
    out).
    """
    g = ec.graph
    colors = ec.colors
    clashes = ec.clashes
    full = (1 << g.n) - 1
    at: list[list[tuple[Edge, int]]] = [[] for _ in range(g.n)]
    for pair in zip(g.edges, colors):  # one (edge, color) tuple for both ends
        at[pair[0][0]].append(pair)
        at[pair[0][1]].append(pair)
    stars = [tuple(star) for star in at]
    for u, v in pairs:
        if not clashes >> u & 1:
            yield u, v, 1 << u, stars[u]
        elif not clashes >> v & 1:  # the complement's crossing edges are v's star
            yield u, v, full ^ 1 << v, stars[v]
        else:
            for side, cross in _bipartitions(g, 1 << u, 1 << v, colors, g.m, budget):
                crossing = tuple((g.edges[i], colors[i]) for i in mask_vertices(cross))
                yield u, v, side, crossing
                break
            else:
                yield u, v, None, None


def find_rainbow_cut(
    ec: EdgeColoring, u: int, v: int, budget: Budget | int | None = None
) -> RainbowCutCertificate | None:
    """A rainbow edge cut separating u from v under the given coloring: the
    side that `_rainbow_cuts` finds, else None."""
    g = ec.graph
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertices must lie in 0..{g.n - 1}")
    if u == v:
        raise ParameterError("a cut certificate needs two distinct vertices")
    _, _, side, crossing = next(_rainbow_cuts(ec, [(u, v)], as_budget(budget)))
    return None if side is None else RainbowCutCertificate(u, v, side, crossing)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    certificates: tuple[RainbowCutCertificate, ...]
    failing_pair: Edge | None


def verify_rd_coloring(
    ec: EdgeColoring, budget: Budget | int | None = None
) -> VerificationReport:
    """Check every vertex pair for a rainbow cut; certify or name a failure.
    The certificate searches of all pairs share one node `budget`."""
    pairs = combinations(range(ec.graph.n), 2)
    certs = []
    for u, v, side, crossing in _rainbow_cuts(ec, pairs, as_budget(budget)):
        if side is None:
            return VerificationReport(False, tuple(certs), (u, v))
        certs.append(RainbowCutCertificate(u, v, side, crossing))
    return VerificationReport(True, tuple(certs), None)


# ---------------------------------------------------------------------------
# certified bounds

@dataclass(frozen=True)
class BoundEntry:
    rule: str
    kind: str  # "lower" | "upper" | "exact" | "skipped"
    value: int | None
    statement: str


@dataclass(frozen=True)
class RdBounds:
    lower: int
    upper: int
    entries: tuple[BoundEntry, ...]

    def exact_value(self) -> int | None:
        return self.lower if self.lower == self.upper else None


@dataclass(frozen=True)
class BoundRule:
    """One certified bound of the rule table.

    `value(g, budget)` returns None when the rule does not apply, else a
    tuple: the bound, then any details the `statement` names (the
    statement is a str.format template over that tuple).  Rules that
    search carry the statements recorded instead when the bounds are
    already settled (`settled`) or the budget runs out (`undecided`);
    `cheap` is a search-free verdict tried before the settled check.
    """

    id: str
    kind: str  # "lower" | "upper" | "exact"
    value: Callable[[Graph, Budget], tuple | None] | None
    statement: str
    settled: str | None = None
    undecided: str | None = None
    cheap: Callable[[Graph, Budget], tuple | None] | None = None


def _multipartite_masks(g: Graph) -> list[int] | None:
    """The part masks behind `multipartite_parts`, smallest first and equal
    sizes in mask order, else None."""
    full = (1 << g.n) - 1
    parts = {full & ~a for a in g.adj}
    if len(parts) < 2 or sum(p.bit_count() for p in parts) != g.n:
        return None
    return sorted(parts, key=lambda p: (p.bit_count(), p))


def multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes (ascending) when the graph is complete multipartite with
    at least two parts, else None.  It is exactly when the closed
    non-neighbourhoods `full & ~adj[v]` partition the vertices, that is, when
    the distinct ones have sizes summing to the order; they are the parts."""
    parts = _multipartite_masks(g)
    return None if parts is None else [p.bit_count() for p in parts]


def multipartite_rd(g: Graph) -> tuple[int, list[int]] | None:
    """The value of a complete multipartite graph and its part sizes, else
    None.  The value is the order minus the smallest part, except that a
    singleton smallest part defers to the second smallest."""
    parts = multipartite_parts(g)
    return None if parts is None else (_multipartite_value(g.n, parts), parts)


def _multipartite_value(n: int, sizes: list[int]) -> int:
    """The value of `multipartite_rd` from the ascending part sizes."""
    return n - (sizes[1] if sizes[0] == 1 else sizes[0])


def _common_degree(g: Graph) -> int | None:
    """The common degree of a regular graph with edges, else None."""
    degs = g.degrees
    return degs[0] if min(degs) == max(degs) >= 1 else None


def _regular_bipartite(g: Graph, b: Budget) -> tuple | None:
    d = _common_degree(g)
    return (d,) if d and bipartition(g) is not None else None


def _regular_dense_even(g: Graph, b: Budget) -> tuple | None:
    d = _common_degree(g)
    return (d,) if d and g.n % 2 == 0 and 7 * d >= 6 * g.n else None


def _near_complete_regular(g: Graph, b: Budget) -> tuple | None:
    d = _common_degree(g)
    return (d,) if d and d >= g.n - 4 else None


def _regular_degree(g: Graph, b: Budget) -> tuple | None:
    d = _common_degree(g)
    return (d,) if d else None


def _one_near_universal_vertex(g: Graph, b: Budget) -> tuple | None:
    near = sum(1 for d in g.degrees if d >= g.n - 2)
    return (g.n - 3,) if near <= 1 else None


def _chromatic_index(g: Graph, b: Budget) -> tuple | None:
    """The chromatic index and the test settling it, when a cheap test does."""
    cv = structural_class(g)
    return None if cv is None else (cv.chromatic_index, cv.method)


def _color_critical(g: Graph, b: Budget) -> tuple | None:
    crit = color_critical_value(g, b)
    return (crit - 1, crit) if crit is not None and crit >= 2 else None


def _chromatic_index_minimal(g: Graph, b: Budget) -> tuple | None:
    return (max(g.degrees),) if is_chromatic_index_minimal(g, b) else None


# The rule table, in evaluation order: cheap exact family rules, cheap
# lower and upper bounds, local edge connectivity, blocks, then the rules
# that may search.  Value functions look library functions up by name at
# call time.
BOUND_RULES = (
    BoundRule(
        "tree", "exact", lambda g, b: (1,) if is_tree(g) else None,
        "the graph is a tree: every edge alone is a separating cut, so one "
        "color suffices and is clearly necessary",
    ),
    BoundRule(
        "cycle", "exact", lambda g, b: (2,) if is_cycle_graph(g) else None,
        "the graph is a cycle: single edges never disconnect it, and two "
        "colors placed with both colors on the two edges at one vertex "
        "give every pair a two-colored cut",
    ),
    BoundRule(
        "two_universal_vertices", "exact",
        lambda g, b: (g.n - 1,) if g.degrees.count(g.n - 1) >= 2 else None,
        "two vertices are adjacent to all others; separating such a "
        "pair forces a cut containing n-2 disjoint two-edge paths "
        "plus their joining edge, so n-1 colors are needed, and n-1 "
        "always suffice",
    ),
    BoundRule(
        "complete_multipartite", "exact", lambda g, b: multipartite_rd(g),
        "complete multipartite graph with part sizes {1}: the "
        "value is the order minus the smallest part, except that a "
        "singleton smallest part defers to the second smallest",
    ),
    BoundRule(
        "regular_bipartite", "exact", _regular_bipartite,
        "connected regular bipartite graph: the value equals the "
        "degree (degree-many colors are forced at any pair of "
        "adjacent vertices and a proper edge coloring with exactly "
        "degree colors exists)",
    ),
    BoundRule(
        "regular_dense_even", "exact", _regular_dense_even,
        "connected regular graph of even order with degree at least "
        "6/7 of the order: the value equals the degree",
    ),
    BoundRule(
        "near_complete_regular", "exact", _near_complete_regular,
        "connected regular graph with degree within four of the order: "
        "the value equals the degree",
    ),
    BoundRule(
        "floor_average_degree", "lower", lambda g, b: (2 * g.m // g.n,),
        "a graph always contains a pair whose minimum edge cut is at "
        "least the floor of the average degree, and a rainbow cut needs "
        "that many colors",
    ),
    BoundRule(
        "size_lower_bound", "lower", lambda g, b: (dense_pair_lower_bound(g),),
        "edge-count criterion: if 2m exceeds (k+1)(n-1) minus the total "
        "degree deficit below k, some pair is joined by k+1 edge-disjoint "
        "paths; the best such bound here is {0}",
    ),
    BoundRule(
        "regular_degree", "lower", _regular_degree,
        "connected regular graphs need at least degree-many colors "
        "(their average degree equals the degree)",
    ),
    BoundRule(
        "max_degree_plus_one", "upper", lambda g, b: (max(g.degrees) + 1,),
        "a proper edge coloring with max degree + 1 colors always exists "
        "and makes every vertex's star a rainbow cut",
    ),
    BoundRule(
        "order_minus_one", "upper", lambda g, b: (g.n - 1,),
        "n-1 colors always suffice for a connected graph of order n",
    ),
    BoundRule(
        "two_leaves", "upper",
        lambda g, b: (g.n - 3,) if g.n >= 4 and g.degrees.count(1) >= 2 else None,
        "a graph of order at least four with two degree-one vertices "
        "needs at most n-3 colors",
    ),
    BoundRule(
        "one_near_universal_vertex", "upper", _one_near_universal_vertex,
        "at most one vertex has degree n-2 or more, which rules out "
        "values above n-3",
    ),
    BoundRule(
        "lambda_plus", "lower", lambda g, b: (upper_edge_connectivity(g),),
        "some vertex pair needs {0} edges removed to be separated, and "
        "a rainbow cut for it needs as many colors",
    ),
    # evaluated by _block_entries: it recurses into the blocks
    BoundRule("block_decomposition", "exact", None, ""),
    # `value` runs only where `cheap` found no test that settles the index,
    # on a connected graph, so it goes straight to the search
    BoundRule(
        "chromatic_index", "upper",
        lambda g, b: (chromatic_index_exact(g, b), "exact"),
        "a proper edge coloring with {0} colors (settled by: {1}) makes "
        "every star a rainbow cut",
        settled="bounds were already settled, so the exact chromatic index "
        "search was not run",
        undecided="the search budget ran out before the chromatic index "
        "was settled",
        cheap=_chromatic_index,
    ),
    BoundRule(
        "color_critical", "lower", _color_critical,
        "deleting any edge lowers the chromatic number {1}; such graphs "
        "have minimum degree at least {0}, forcing that many colors",
        settled="bounds were already settled, so edge criticality of the "
        "chromatic number was not tested",
        undecided="the search budget ran out while testing chromatic "
        "criticality",
    ),
    BoundRule(
        "chromatic_index_minimal", "upper", _chromatic_index_minimal,
        "deleting any edge lowers the chromatic index, which caps the "
        "value at the maximum degree",
        settled="bounds were already settled, so edge minimality of the "
        "chromatic index was not tested",
        undecided="the search budget ran out while testing chromatic index "
        "minimality",
    ),
)
ALL_RULES = frozenset(rule.id for rule in BOUND_RULES)

# the four bounds forming the basic sandwich: local connectivity below,
# proper colorings above
CHAIN_RULES = frozenset(
    {"lambda_plus", "chromatic_index", "max_degree_plus_one", "order_minus_one"}
)

# everything except the two rules that may delete each edge in turn and
# solve a coloring problem again; the survey brackets a graph whose value
# ran out of budget with these (`_Ctx.bounds`), and solves every value
# under CHAIN_RULES
FAST_AUX_RULES = ALL_RULES - {"color_critical", "chromatic_index_minimal"}


def _require_valid(g: Graph) -> None:
    if g.n < 2:
        raise StructureError(
            "rainbow disconnection is defined for graphs with at least two vertices"
        )
    if not g.is_connected():
        raise StructureError("rainbow disconnection is defined for connected graphs")


def _rule_entries(
    rule: BoundRule, g: Graph, b: Budget, settled: bool
) -> tuple[BoundEntry, ...]:
    """The entry one table rule contributes, if any."""
    got = rule.cheap(g, b) if rule.cheap else None
    if got is None:
        if settled and rule.settled:
            return (BoundEntry(rule.id, "skipped", None, rule.settled),)
        try:
            got = rule.value(g, b)
        except Undecided:
            if rule.undecided is None:
                raise
            return (BoundEntry(rule.id, "skipped", None, rule.undecided),)
    if got is None:
        return ()
    return (BoundEntry(rule.id, rule.kind, got[0], rule.statement.format(*got)),)


def _block_entries(g: Graph, b: Budget, rules: frozenset) -> list[BoundEntry]:
    """The value is the maximum over the blocks; bound each block under the
    same rules."""
    parts = blocks(g)
    if len(parts) < 2:
        return []
    subs = [rd_bounds(blk.graph, b, rules) for blk in parts]
    lo = max(sb.lower for sb in subs)
    hi = max(sb.upper for sb in subs)
    head = f"the value equals the maximum over the {len(parts)} blocks, "
    if lo == hi:
        return [
            BoundEntry(
                "block_decomposition", "exact", lo,
                head + "each of which is settled exactly",
            )
        ]
    return [
        BoundEntry(
            "block_decomposition", "lower", lo,
            head + "one of which needs at least this many colors",
        ),
        BoundEntry(
            "block_decomposition", "upper", hi,
            head + "none of which needs more than this",
        ),
    ]


def rd_bounds(
    g: Graph,
    budget: Budget | int | None = None,
    rules=None,
) -> RdBounds:
    """Certified lower and upper bounds from the rule table.

    `rules` restricts evaluation to a subset of rule names; None means all.
    Rules run in table order.  Rules that would launch an expensive search
    are recorded as "skipped" when the bounds are already settled or the
    budget runs out.
    """
    _require_valid(g)
    b = as_budget(budget)
    active = ALL_RULES if rules is None else frozenset(rules)
    unknown = active - ALL_RULES
    if unknown:
        raise ParameterError(f"unknown bound rules: {sorted(unknown)}")

    entries: list[BoundEntry] = []
    lower, upper = 1, g.n - 1
    for rule in BOUND_RULES:
        if rule.id not in active:
            continue
        if rule.id == "block_decomposition":
            found = _block_entries(g, b, active)
        else:
            found = _rule_entries(rule, g, b, lower == upper)
        for e in found:
            entries.append(e)
            if e.kind in ("lower", "exact"):
                lower = max(lower, e.value)
            if e.kind in ("upper", "exact"):
                upper = min(upper, e.value)

    if lower > upper:
        raise RdError(
            f"bound rules disagree: lower {lower} exceeds upper {upper}"
        )
    return RdBounds(lower, upper, tuple(entries))


# ---------------------------------------------------------------------------
# exact computation

Sides = list[tuple[int, int]]  # (side mask, crossing-edge mask)


def _cut_sides(g: Graph, k: int, budget: Budget | int | None = None) -> Sides:
    """The sides holding vertex 0 that at most k edges cross, in increasing
    mask order, with their crossing-edge masks.  They are enumerated with
    edge ids as colors, so only the count binds, and each placement spends a
    `budget` node."""
    found = list(_bipartitions(g, 1, 0, range(g.m), k, as_budget(budget)))
    found.pop()  # the full side, last in mask order, is no cut
    return found


def _build_cut_system(g: Graph, wide: Sides):
    """The cut system of the sides `wide`, all in bitmasks over cut and pair
    indices: per cut, the number of edges that cross it; per edge, the mask
    of the cuts it crosses; the vertex pairs; per pair, the mask of the cuts
    that separate it; and per cut, the mask of the pairs it splits; not the
    sides.  It is built once per side enumeration, at level `top`: the
    cuts of a level k at or below it are those that at most k edges cross,
    and `_rd_search` takes them as a mask, which keeps the mask order, so
    the level equals a system built from `_cut_sides(g, k)` itself.  A
    pair's separation mask is the XOR of its two vertices' masks of the cuts
    whose side holds them, and a cut's split mask the XOR of its side's
    vertices' masks of the pairs they are in."""
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    at = [0] * n
    for p, (u, v) in enumerate(pairs):
        at[u] |= 1 << p
        at[v] |= 1 << p
    edge_cuts = [0] * g.m
    holds = [0] * n
    sizes = []
    splits = []
    for c, (side, cross) in enumerate(wide):
        bit = 1 << c
        sizes.append(cross.bit_count())
        while cross:
            low = cross & -cross
            edge_cuts[low.bit_length() - 1] |= bit
            cross ^= low
        split = 0
        while side:
            low = side & -side
            x = low.bit_length() - 1
            holds[x] |= bit
            split ^= at[x]
            side ^= low
        splits.append(split)
    pair_sep = [holds[u] ^ holds[v] for u, v in pairs]
    return sizes, edge_cuts, pairs, pair_sep, splits


def _rd_search(g: Graph, k: int, budget: Budget, system):
    """Search for a rainbow disconnection coloring with colors 1..k.

    Returns (coloring or None, nodes expanded, hardest pair or None).
    `system` is a `_build_cut_system` of the sides of a level at or above
    k; the level's cuts are the mask of those that at most k edges cross,
    and every other mask of the search is cut down to it.  If the graph is
    k-regular and the level holds only its n stars, a valid coloring leaves
    at most one star not rainbow, so the star of vertex 0, then of vertex
    1, is fixed to colors 1..k (the star break).  `budget` pays for each
    candidate color (the nodes returned) and for the check of a coloring
    found, which walks the system's pairs whose two ends both have a
    clashing star through `_rainbow_cuts` (a star answers every other pair
    and spends nothing), so it spends what `verify_rd_coloring` does, and
    raises RdError at a pair left uncut.
    Prunes through cut viability: a bipartition cut dies once two of its
    crossing edges share a color, and a branch dies once some vertex pair
    has no live cut left.  The cuts are bits: each edge has a mask of the
    small cuts it crosses, each color a mask of the cuts its placed edges
    cross, and the recursion passes down the mask of live cuts, so coloring
    edge e with col kills `edge_cuts[e] & hit[col] & alive` and undoing it
    restores one color's mask.  Only the pairs that a dying cut separates
    are tested, read off the cut's mask of split pairs, in ascending pair
    order.

    Edges are colored in a fail-first order fixed once per branch: the
    forced star edges, then repeatedly the edge that most of the placed
    edges' small cuts hold, ties broken by its own number of small cuts,
    then by the lower edge id.  An edge's candidates are its forced color,
    or 1..min(k, highest color placed + 1); they are tried least
    constraining first (Haralick & Elliott 1980): in ascending number of
    cuts they kill, ties going to the higher color, so an unused color
    comes first.  A node's candidates and prunes depend only on the colors
    on its path, so a refuted level visits the same tree in any order of
    siblings: its node count, fail count per pair, hardest pair (the most
    failed, ties going to the smallest) and budget are those of the
    ascending color order of the per-cut loop this replaced (kept as the
    reference in tests/test_rd.py).  A feasible level stops at its first
    coloring, so there the order sets the count.
    """
    n, m = g.n, g.m
    sizes, edge_cuts, pairs, pair_sep, splits = system
    fails: dict[Edge, int] = {}
    nodes = 0

    level = 0  # the cuts that at most k edges cross
    for c, size in enumerate(sizes):
        if size <= k:
            level |= 1 << c
    for p, mask in enumerate(pair_sep):
        if not mask & level:
            return None, 0, pairs[p]
    edge_cuts = [cuts & level for cuts in edge_cuts]
    held = [cuts.bit_count() for cuts in edge_cuts]

    # the n stars are k edges wide, so they are all its cuts if the level has n
    degs = g.degrees
    star_break = n >= 3 and min(degs) == max(degs) == k and level.bit_count() == n

    # an edge's rank packs (shared, held, -id) into one integer: the placed
    # edges' small cuts holding it, its own small cuts, and m - 1 - id
    id_bits = m.bit_length()
    shared_shift = max(held, default=0).bit_length() + id_bits

    def fail_first(forced: dict[int, int]) -> list[int]:
        order = list(forced)
        rest = [i for i in range(m) if i not in forced]
        rank = [held[i] << id_bits | (m - 1 - i) for i in range(m)]

        def place(e: int) -> None:
            cuts = edge_cuts[e]
            for i in rest:
                rank[i] += (cuts & edge_cuts[i]).bit_count() << shared_shift

        for e in forced:
            place(e)
        while rest:
            e = max(rest, key=rank.__getitem__)
            rest.remove(e)
            order.append(e)
            place(e)
        return order

    def run(forced: dict[int, int]):
        hit = [0] * (k + 1)  # per color: the cuts an edge of that color crosses
        colors = [0] * m
        order = fail_first(forced)

        def rec(pos: int, cmax: int, alive: int) -> bool:
            nonlocal nodes
            if pos == len(order):
                return True
            e = order[pos]
            cuts = edge_cuts[e]
            cands = (forced[e],) if e in forced else range(min(k, cmax + 1), 0, -1)
            tries = sorted(  # by count, ties in the descending order of cands
                [
                    ((dying := cuts & hit[col] & alive).bit_count(), -col, dying, col)
                    for col in cands
                ]
            )
            for _, _, dying, col in tries:
                budget.spend()
                nodes += 1
                live = alive ^ dying
                split = 0
                while dying:
                    low = dying & -dying
                    split |= splits[low.bit_length() - 1]
                    dying ^= low
                while split:
                    low = split & -split
                    p = low.bit_length() - 1
                    if not pair_sep[p] & live:
                        pr = pairs[p]
                        fails[pr] = fails.get(pr, 0) + 1
                        break
                    split ^= low
                else:
                    before = hit[col]
                    hit[col] = before | cuts
                    colors[e] = col
                    if rec(pos + 1, max(cmax, col), live):
                        return True
                    hit[col] = before
            return False

        if rec(0, 0, level):
            return EdgeColoring(g, tuple(colors))
        return None

    branches: list[dict[int, int]]
    if star_break:
        branches = []
        for anchor in (0, 1):
            star = [i for i, e in enumerate(g.edges) if anchor in e]
            branches.append({e: c for c, e in enumerate(star, start=1)})
    else:
        branches = [{}]

    for forced in branches:
        found = run(forced)
        if found is not None:
            clashes = found.clashes  # a star answers a pair with an end outside
            both = [(u, v) for u, v in pairs if clashes >> u & clashes >> v & 1]
            for u, v, side, _ in _rainbow_cuts(found, both, budget):
                if side is None:
                    raise RdError(
                        f"search produced a coloring with no rainbow cut for pair {u, v}"
                    )
            return found, nodes, None
    worst = min(fails, key=lambda pr: (-fails[pr], pr)) if fails else None
    return None, nodes, worst


@dataclass(frozen=True)
class RdResult:
    value: int
    bounds: RdBounds
    method: str  # "rules" | "search"
    rule: str | None
    coloring: EdgeColoring | None
    search_nodes: int
    note: str | None


def _pinning_rule(bounds: RdBounds) -> str:
    value = bounds.lower
    for e in bounds.entries:
        if e.kind == "exact" and e.value == value:
            return e.rule
    lo = [e.rule for e in bounds.entries if e.kind == "lower" and e.value == value]
    up = [e.rule for e in bounds.entries if e.kind == "upper" and e.value == value]
    lo_name = lo[0] if lo else "baseline"
    up_name = up[0] if up else "baseline"
    return f"{lo_name}+{up_name}"


def rd_exact(
    g: Graph,
    budget: Budget | int | None = None,
    max_search_edges: int = DEFAULT_SEARCH_EDGE_CAP,
    rules=None,
) -> RdResult:
    """The exact rainbow disconnection number.

    Bounds come first; if they pin the value, no search runs.  Otherwise
    every candidate below the certified upper bound is searched in
    ascending order, so either a verified optimal coloring is found or
    the upper bound is confirmed as the value (its rule is constructive,
    so no search at the top is needed).  The search path refuses graphs
    with more than `max_search_edges` edges.

    The bipartition sides are enumerated and their cut system built once,
    at level `top`; each level up to `top` searches the cuts that at most k
    edges cross, and a level above it enumerates and builds its own.  `top`
    is the first level searched when the lower bound already includes λ⁺.
    Otherwise it is the lower bound raised to the second-largest degree d2,
    capped at the last level searched: the star of a pair's endpoint of
    smaller degree separates it, so λ⁺ ≤ d2 and each level below λ⁺, where
    no coloring exists, uses the one enumeration and the one system.

    `budget` alone limits the work: bounds, side enumerations, search and
    the check of a coloring found all spend it.  `max_search_edges` refuses
    a large graph at once, as a budget is no time limit.
    """
    if max_search_edges < 0:
        raise ParameterError("max_search_edges must be a nonnegative edge count")
    b = as_budget(budget)
    bounds = rd_bounds(g, b, rules)
    if bounds.lower == bounds.upper:
        return RdResult(
            bounds.lower, bounds, "rules", _pinning_rule(bounds), None, 0, None
        )
    if g.m > max_search_edges:
        raise SizeError(
            f"exact search over {g.m} edges exceeds the cap of "
            f"{max_search_edges}; raise max_search_edges to allow it"
        )
    notes = []
    total_nodes = 0
    top = bounds.lower
    if all(e.rule != "lambda_plus" for e in bounds.entries):
        top = min(max(top, sorted(g.degrees)[-2]), bounds.upper - 1)
    try:
        system = _build_cut_system(g, _cut_sides(g, top, b))
        for k in range(bounds.lower, bounds.upper):
            if k > top:
                system = _build_cut_system(g, _cut_sides(g, k, b))
            coloring, nodes, worst = _rd_search(g, k, b, system)
            total_nodes += nodes
            if coloring is not None:
                notes.append(f"k={k}: feasible after {nodes} nodes")
                return RdResult(
                    k, bounds, "search", None, coloring, total_nodes, "; ".join(notes)
                )
            extra = f", hardest pair {worst}" if worst is not None else ""
            notes.append(f"k={k}: infeasible after {nodes} nodes{extra}")
    except Undecided as exc:
        exc.partial = bounds
        raise
    top_rules = sorted(
        e.rule
        for e in bounds.entries
        if e.kind in ("upper", "exact") and e.value == bounds.upper
    ) or ["baseline"]
    notes.append(f"k={bounds.upper}: certified by {', '.join(top_rules)}")
    return RdResult(
        bounds.upper, bounds, "search", None, None, total_nodes, "; ".join(notes)
    )


# ---------------------------------------------------------------------------
# coloring constructions

def _lift(g: Graph, ids, sub: EdgeColoring, colors: list[int]) -> None:
    """Copy the coloring `sub` of a subgraph of g, whose vertex i is vertex
    ids[i] of g, into `colors`, indexed by g's edge ids; ids ascends, so an
    edge (a, b) of the subgraph is the edge (ids[a], ids[b]) of g."""
    index = g.edge_index
    for (a, b), c in zip(sub.graph.edges, sub.colors):
        colors[index[ids[a], ids[b]]] = c


def _without(g: Graph, u: int) -> tuple[Graph, tuple[int, ...]]:
    """g - u with its vertex map; vertex x of g is vertex x - (x > u)."""
    return g.induced_subgraph(x for x in range(g.n) if x != u)


def _extend_at_vertex(
    g: Graph, u: int, h: Graph, ids: tuple[int, ...], t: int, budget: Budget
) -> EdgeColoring:
    """Color h = g - u (from `_without`) properly with at most t colors,
    then give each edge at u the smallest color missing at its other end.
    Every star except u's is then rainbow, which certifies the result."""
    hec = _color_within(h, t, budget)
    colors = [0] * g.m
    _lift(g, ids, hec, colors)
    # the colors at each vertex of h, as masks, from one pass over its edges
    at = [0] * h.n
    for (a, b), c in zip(h.edges, hec.colors):
        at[a] |= 1 << c
        at[b] |= 1 << c
    index = g.edge_index
    for x in mask_vertices(g.adj[u]):
        free = ~at[x - (x > u)] & ~1
        colors[index[normalize_edge(u, x)]] = (free & -free).bit_length() - 1
    ec = EdgeColoring(g, tuple(colors))
    if ec.max_color > t:
        raise RdError(f"extension used more than {t} colors")
    if ec.clashes & ~(1 << u):
        raise RdError("extension left a non-rainbow star")
    return ec


def construct_rd_coloring(
    g: Graph, budget: Budget | int | None = None
) -> tuple[EdgeColoring, str]:
    """A valid rainbow disconnection coloring plus the construction name.

    Optimal for trees, cycles, graphs with cut vertices whose blocks are
    handled optimally, and complete multipartite graphs; otherwise the
    smaller of a proper coloring and the best single-vertex extension.
    Extension candidates are screened by the degree floor, so a Class 1
    graph tries at most its unique maximum-degree vertex.  The graph is
    split into blocks once; each block is colored by `_construct_block`.
    """
    _require_valid(g)
    b = as_budget(budget)
    if not (is_tree(g) or is_cycle_graph(g)):
        parts = blocks(g)
        if len(parts) > 1:
            colors = [0] * g.m
            for blk in parts:
                _lift(g, blk.vertices, _construct_block(blk.graph, b)[0], colors)
            return EdgeColoring(g, tuple(colors)), "blocks"
    return _construct_block(g, b)


def _construct_block(g: Graph, b: Budget) -> tuple[EdgeColoring, str]:
    """`construct_rd_coloring` of a connected graph with no cut vertex, or
    of a tree or a cycle, which needs no block split."""
    if is_tree(g):
        return EdgeColoring(g, (1,) * g.m), "tree"

    if is_cycle_graph(g):
        colors = [1 if 0 in e else 2 for e in g.edges]
        return EdgeColoring(g, tuple(colors)), "cycle"

    parts = _multipartite_masks(g)
    if parts is not None:  # extend at the lowest vertex of the first smallest part
        u = (parts[0] & -parts[0]).bit_length() - 1
        t = _multipartite_value(g.n, [p.bit_count() for p in parts])
        return _extend_at_vertex(g, u, *_without(g, u), t, b), "multipartite-extension"

    chi = classify_chromatic(g, b).chromatic_index
    deg = g.degrees
    for u in range(g.n):
        # t_u is at least every other vertex's degree: a neighbour of u
        # counts in the second term, any other keeps its degree in g - u
        if max(deg[:u] + deg[u + 1:]) >= chi:
            continue
        h, ids = _without(g, u)
        t_u = max(
            classify_chromatic(h, b).chromatic_index,
            max(deg[x] for x in mask_vertices(g.adj[u])),
        )
        if t_u < chi:
            # the first u below chi is the best one: in a Class 1 graph
            # only a unique vertex of degree Δ passes the floor, and a
            # Class 2 graph has two vertices of degree Δ (Vizing's
            # adjacency lemma), so here t_u = Δ = chi - 1 and no later u
            # passes.  `_color_within` replays the χ′ search kept on h.
            return _extend_at_vertex(g, u, h, ids, t_u, b), "star-extension"
    return _color_within(g, chi, b), "proper-coloring"


# ---------------------------------------------------------------------------
# extremal constructions

def construct_extremal_graph(n: int, k: int) -> tuple[Graph, EdgeColoring]:
    """A graph of odd order n with (k+1)(n-1)/2 edges whose rainbow
    disconnection number is exactly k: the maximum possible size for that
    value.

    For k below n-1, take k-1 perfect matchings of a one-factorization on
    n-1 vertices and join one hub vertex to all of them; matchings keep
    their own colors and hub edges share the one remaining color.  For
    k = n-1 the graph is complete.
    """
    if n < 5 or n % 2 == 0:
        raise ParameterError("the construction needs an odd order of at least five")
    if not 1 <= k <= n - 1:
        raise ParameterError(f"target value must lie in 1..{n - 1}")
    if k == n - 1:
        g = complete_graph(n)
        ec, _ = construct_rd_coloring(g)
    else:
        hub = n - 1
        rounds = round_robin_rounds(n - 1)
        color_by_edge: dict[Edge, int] = {}
        for r in range(k - 1):
            for e in rounds[r]:
                color_by_edge[e] = r + 1
        for x in range(n - 1):
            color_by_edge[(x, hub)] = k
        g = Graph.from_edges(n, color_by_edge.keys())
        ec = EdgeColoring(g, tuple(color_by_edge[e] for e in g.edges))
    if g.m != (k + 1) * (n - 1) // 2:
        raise RdError("size identity violated")
    if ec.max_color > k:
        raise RdError(f"extremal coloring uses more than {k} colors")
    if upper_edge_connectivity(g) < k:
        raise RdError("connectivity floor violated")
    if k < n - 1 and ec.clashes & ~(1 << n - 1):
        raise RdError("non-hub star is not rainbow")
    return g, ec


def construct_ng_sharp_graph(n: int) -> Graph:
    """A graph of order n (at least six) for which the complementary-pair
    inequalities are tight from above: the graph reaches n-2 and its
    connected complement reaches n-3.

    Two hub vertices 0 and 1 are adjacent to each other and to every vertex
    from 3 on; vertex 2 hangs on vertex 3 by a single edge."""
    if n < 6:
        raise ParameterError("the construction needs order at least six")
    edges = [(0, 1), (2, 3)]
    for x in range(3, n):
        edges.append((0, x))
        edges.append((1, x))
    return Graph.from_edges(n, edges)
