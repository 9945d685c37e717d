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

from .budget import Budget, as_budget
from .coloring import (
    EdgeColoring,
    bipartite_color,
    chromatic_coloring,
    classify_chromatic,
    color_critical_value,
    fan_rotation_color,
    find_edge_coloring,
    is_chromatic_index_minimal,
    round_robin_rounds,
)
from .connectivity import dense_pair_lower_bound, upper_edge_connectivity
from .errors import ParameterError, RdError, SizeError, StructureError, Undecided
from .graphs import (
    Edge,
    Graph,
    bipartition,
    blocks,
    complement,
    complete_graph,
    is_cycle_graph,
    is_tree,
    mask_vertices,
    normalize_edge,
)

ENUMERATION_FREE_BITS = 18  # rainbow-cut search enumerates 2^(n-2) sides
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


def find_rainbow_cut(
    ec: EdgeColoring, u: int, v: int
) -> RainbowCutCertificate | None:
    """A rainbow edge cut separating u from v under the given coloring.

    If an arbitrary edge set works, the boundary of the u-component after
    its removal is a bipartition cut contained in it, so searching
    bipartitions is complete.  The stars of u and of v are tried first;
    the full enumeration is capped to keep runtime bounded.
    """
    g = ec.graph
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertices must lie in 0..{g.n - 1}")
    if u == v:
        raise ParameterError("a cut certificate needs two distinct vertices")

    def attempt(side: int) -> RainbowCutCertificate | None:
        seen: set[int] = set()
        crossing = []
        for i, (a, b) in enumerate(g.edges):
            if (side >> a & 1) != (side >> b & 1):
                c = ec.colors[i]
                if c in seen:
                    return None
                seen.add(c)
                crossing.append(((a, b), c))
        return RainbowCutCertificate(u, v, side, tuple(crossing))

    got = attempt(1 << u)
    if got is not None:
        return got
    full = (1 << g.n) - 1
    got = attempt(full ^ (1 << v))
    if got is not None:
        return got
    others = [x for x in range(g.n) if x != u and x != v]
    if len(others) > ENUMERATION_FREE_BITS:
        raise SizeError(
            f"rainbow cut enumeration over {len(others)} free vertices exceeds "
            f"the 2^{ENUMERATION_FREE_BITS} cap"
        )
    for mask in range(1 << len(others)):
        side = 1 << u
        rest = mask
        while rest:
            low = rest & -rest
            side |= 1 << others[low.bit_length() - 1]
            rest ^= low
        got = attempt(side)
        if got is not None:
            return got
    return None


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    certificates: tuple[RainbowCutCertificate, ...]
    failing_pair: Edge | None


def verify_rd_coloring(ec: EdgeColoring) -> VerificationReport:
    """Check every vertex pair for a rainbow cut; certify or name a failure."""
    g = ec.graph
    certs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cert = find_rainbow_cut(ec, u, v)
            if cert is None:
                return VerificationReport(False, tuple(certs), (u, v))
            certs.append(cert)
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


def multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes (ascending) when the graph is complete multipartite with
    at least two parts, else None.  Detected through the complement: its
    components must all be cliques."""
    if g.n < 2:
        return None
    co = complement(g)
    sizes = []
    for mask in co.components():
        verts = list(mask_vertices(mask))
        k = len(verts)
        inner = sum(
            1 for a, b in co.edges if mask >> a & 1 and mask >> b & 1
        )
        if inner != k * (k - 1) // 2:
            return None
        sizes.append(k)
    if len(sizes) < 2:
        return None
    return sorted(sizes)


def multipartite_rd(g: Graph) -> tuple[int, list[int]] | None:
    """The value of a complete multipartite graph and its part sizes, else
    None.  The value is the order minus the smallest part, except that a
    singleton smallest part defers to the second smallest."""
    parts = multipartite_parts(g)
    if parts is None:
        return None
    return g.n - (parts[1] if parts[0] == 1 else parts[0]), parts


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


def _chromatic_index(g: Graph, b: Budget, allow_search: bool) -> tuple | None:
    cv = classify_chromatic(g, b, allow_search=allow_search)
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
    BoundRule(
        "chromatic_index", "upper",
        lambda g, b: _chromatic_index(g, b, allow_search=True),
        "a proper edge coloring with {0} colors (settled by: {1}) makes "
        "every star a rainbow cut",
        settled="bounds were already settled, so the exact chromatic index "
        "search was not run",
        undecided="the search budget ran out before the chromatic index "
        "was settled",
        cheap=lambda g, b: _chromatic_index(g, b, allow_search=False),
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

# everything except the two rules that re-solve a coloring problem per edge
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
    if rules is None:
        active = ALL_RULES
    else:
        active = frozenset(rules)
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

def _build_cut_system(g: Graph, k: int):
    """All bipartition sides (containing vertex 0) with at most k crossing
    edges, the pair-separation masks, and the cut lists per edge."""
    n, m = g.n, g.m
    full = (1 << n) - 1
    sides: list[int] = []
    cross: list[tuple[int, ...]] = []
    for smask in range(1 << (n - 1)):
        side = smask << 1 | 1
        if side == full:
            continue
        xs = [
            i
            for i, (a, bb) in enumerate(g.edges)
            if (side >> a & 1) != (side >> bb & 1)
        ]
        if len(xs) <= k:
            sides.append(side)
            cross.append(tuple(xs))
    cuts_of_edge: list[list[int]] = [[] for _ in range(m)]
    for c, xs in enumerate(cross):
        for i in xs:
            cuts_of_edge[i].append(c)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pair_sep: list[int] = []
    for u, v in pairs:
        mask = 0
        for c, side in enumerate(sides):
            if (side >> u & 1) != (side >> v & 1):
                mask |= 1 << c
        pair_sep.append(mask)
    return sides, cross, cuts_of_edge, pairs, pair_sep


def _rd_search(g: Graph, k: int, budget: Budget):
    """Search for a rainbow disconnection coloring with colors 1..k.

    Returns (coloring or None, nodes expanded, hardest pair or None).
    Prunes through cut viability: a bipartition cut dies once two of its
    crossing edges share a color, and a branch dies once some vertex pair
    has no live cut left.
    """
    n, m = g.n, g.m
    sides, cross, cuts_of_edge, pairs, pair_sep = _build_cut_system(g, k)
    ncuts = len(sides)
    fails: dict[Edge, int] = {}
    nodes = 0

    for p, mask in enumerate(pair_sep):
        if mask == 0:
            return None, 0, pairs[p]

    # when every small cut is a vertex star in a k-regular graph, any valid
    # coloring makes all stars rainbow except possibly one, so the star of
    # vertex 0 or of vertex 1 can be fixed to colors 1..k outright
    degs = g.degrees
    star_break = (
        n >= 3
        and min(degs) == max(degs) == k
        and all(s.bit_count() in (1, n - 1) for s in sides)
    )

    def run(pre: list[tuple[int, int]]):
        nonlocal nodes
        used = [0] * ncuts
        dead = [False] * ncuts
        alive = (1 << ncuts) - 1
        colors = [0] * m

        def try_color(e: int, col: int):
            nonlocal alive
            log: list[tuple[int, int]] = []
            died = 0
            bit = 1 << (col - 1)
            for c in cuts_of_edge[e]:
                if dead[c]:
                    continue
                if used[c] & bit:
                    dead[c] = True
                    alive &= ~(1 << c)
                    died |= 1 << c
                    log.append((c, 0))
                else:
                    used[c] |= bit
                    log.append((c, bit))
            if died:
                for p, sep in enumerate(pair_sep):
                    if sep & died and not sep & alive:
                        pr = pairs[p]
                        fails[pr] = fails.get(pr, 0) + 1
                        for c, ubit in reversed(log):
                            if ubit:
                                used[c] ^= ubit
                            else:
                                dead[c] = False
                                alive |= 1 << c
                        return None
            colors[e] = col
            return log

        def undo(e: int, log) -> None:
            nonlocal alive
            colors[e] = 0
            for c, ubit in reversed(log):
                if ubit:
                    used[c] ^= ubit
                else:
                    dead[c] = False
                    alive |= 1 << c

        pre_set = set()
        applied = []
        for e, col in pre:
            budget.spend()
            nodes += 1
            log = try_color(e, col)
            if log is None:
                for ee, lg in reversed(applied):
                    undo(ee, lg)
                return None
            applied.append((e, log))
            pre_set.add(e)
        order = [i for i in range(m) if i not in pre_set]
        start_cmax = max((col for _, col in pre), default=0)

        def rec(pos: int, cmax: int) -> bool:
            nonlocal nodes
            if pos == len(order):
                return True
            e = order[pos]
            top = min(k, cmax + 1)
            for col in range(1, top + 1):
                budget.spend()
                nodes += 1
                log = try_color(e, col)
                if log is None:
                    continue
                if rec(pos + 1, max(cmax, col)):
                    return True
                undo(e, log)
            return False

        if rec(0, start_cmax):
            return EdgeColoring(g, tuple(colors))
        for ee, lg in reversed(applied):
            undo(ee, lg)
        return None

    branches: list[list[tuple[int, int]]]
    if star_break:
        branches = []
        for anchor in (0, 1):
            star = [i for i, e in enumerate(g.edges) if anchor in e]
            branches.append([(e, c) for c, e in enumerate(star, start=1)])
    else:
        branches = [[]]

    for pre in branches:
        found = run(pre)
        if found is not None:
            if not verify_rd_coloring(found).ok:
                raise RdError("search produced a coloring its verifier rejects")
            return found, nodes, None
    worst = max(fails, key=fails.get) if fails else None
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
    """
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
    for k in range(bounds.lower, bounds.upper):
        try:
            coloring, nodes, worst = _rd_search(g, k, b)
        except Undecided as exc:
            exc.partial = bounds
            raise
        total_nodes += nodes
        if coloring is not None:
            notes.append(f"k={k}: feasible after {nodes} nodes")
            return RdResult(
                k, bounds, "search", None, coloring, total_nodes, "; ".join(notes)
            )
        extra = f", hardest pair {worst}" if worst is not None else ""
        notes.append(f"k={k}: infeasible after {nodes} nodes{extra}")
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

def _color_within(h: Graph, t: int, budget: Budget) -> EdgeColoring:
    """A proper edge coloring of h with at most t colors; t must be known
    to be achievable."""
    if h.m == 0:
        return EdgeColoring(h, ())
    delta = max(h.degrees)
    if delta > t:
        raise RdError("impossible palette for a proper coloring")
    if bipartition(h) is not None:
        return bipartite_color(h)
    if delta + 1 <= t:
        return fan_rotation_color(h)
    ec = find_edge_coloring(h, t, budget)
    if ec is None:
        raise RdError("palette was promised to be achievable")
    return ec


def _extend_at_vertex(
    g: Graph, u: int, t: int, budget: Budget
) -> EdgeColoring:
    """Color g - u properly with at most t colors, then give each edge at u
    the smallest color missing at its other end.  Every star except u's is
    then rainbow, which certifies the result."""
    keep = [x for x in range(g.n) if x != u]
    h, old_ids = g.induced_subgraph(keep)
    pos = {x: i for i, x in enumerate(old_ids)}
    hec = _color_within(h, t, budget)
    colors = [0] * g.m
    for i, (a, b) in enumerate(h.edges):
        colors[g.edge_index[normalize_edge(old_ids[a], old_ids[b])]] = hec.colors[i]
    for x in g.neighbors(u):
        at_x = {hec.colors[i] for i, e in enumerate(h.edges) if pos[x] in e}
        c = 1
        while c in at_x:
            c += 1
        if c > t:
            raise RdError("no spare color at a neighbor; palette too small")
        colors[g.edge_index[normalize_edge(u, x)]] = c
    ec = EdgeColoring(g, tuple(colors))
    if ec.max_color > t:
        raise RdError(f"extension used more than {t} colors")
    for x in range(g.n):
        if x == u:
            continue
        star = [
            ec.colors[i] for i, e in enumerate(g.edges) if x in e
        ]
        if len(star) != len(set(star)):
            raise RdError("extension left a non-rainbow star")
    return ec


def construct_rd_coloring(
    g: Graph, budget: Budget | int | None = None
) -> tuple[EdgeColoring, str]:
    """A valid rainbow disconnection coloring plus the construction name.

    Optimal for trees, cycles, graphs with cut vertices whose blocks are
    handled optimally, and complete multipartite graphs; otherwise the
    smaller of a proper coloring and the best single-vertex extension.
    """
    _require_valid(g)
    b = as_budget(budget)

    if is_tree(g):
        return EdgeColoring(g, (1,) * g.m), "tree"

    if is_cycle_graph(g):
        colors = [1 if 0 in e else 2 for e in g.edges]
        return EdgeColoring(g, tuple(colors)), "cycle"

    parts = blocks(g)
    if len(parts) > 1:
        colors = [0] * g.m
        for blk in parts:
            sub_ec, _ = construct_rd_coloring(blk.graph, b)
            ids = blk.vertices
            for i, (a, bb) in enumerate(blk.graph.edges):
                e = normalize_edge(ids[a], ids[bb])
                colors[g.edge_index[e]] = sub_ec.colors[i]
        return EdgeColoring(g, tuple(colors)), "blocks"

    multipartite = multipartite_rd(g)
    if multipartite is not None:
        by_size = sorted(
            (mask.bit_count(), mask) for mask in complement(g).components()
        )
        u = (by_size[0][1] & -by_size[0][1]).bit_length() - 1
        ec = _extend_at_vertex(g, u, multipartite[0], b)
        return ec, "multipartite-extension"

    base = classify_chromatic(g, b)
    best_u, best_t = None, base.chromatic_index
    for u in range(g.n):
        keep = [x for x in range(g.n) if x != u]
        h, _ = g.induced_subgraph(keep)
        cv = classify_chromatic(h, b)
        t_u = max(
            cv.chromatic_index,
            max(g.degree(x) for x in g.neighbors(u)),
        )
        if t_u < best_t:
            best_u, best_t = u, t_u
    if best_u is not None:
        return _extend_at_vertex(g, best_u, best_t, b), "star-extension"
    _, ec = chromatic_coloring(g, b)
    return ec, "proper-coloring"


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
    for x in range(n - 1 if k < n - 1 else 0):
        star = [ec.colors[i] for i, e in enumerate(g.edges) if x in e]
        if len(star) != len(set(star)):
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
