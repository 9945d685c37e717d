"""Exhaustive theorem checking over small graph censuses.

Every harness rule states an inequality, identity, or implication about the
rainbow disconnection number (or the chromatic machinery underneath it) and
is checked on each graph of a survey.  Every value, of a surveyed graph or
of a graph derived from it, is recomputed from local edge connectivity plus
exact search only (CHAIN_RULES), so neither the family formulas nor the
block, subgraph and complement facts under test feed their own
verification.  Reports are byte-identical across runs and across --jobs
settings.

Ten harness rules restate a rule of the bound table in `rd` and go through
one generic check, "the value satisfies table rule X": cycle_rd_two (cycle),
multipartite_rd (complete_multipartite), average_degree_bound
(floor_average_degree), critical_lower (color_critical),
minimal_rd_max_degree (chromatic_index_minimal), two_leaves_bound
(two_leaves), low_degree_bound (one_near_universal_vertex),
regular_bipartite_rd (regular_bipartite), regular_dense_even_rd
(regular_dense_even) and near_complete_regular_rd (near_complete_regular).
An exact rule must match the value; a lower or upper bound must hold, and
is reported as a witness when met with equality.  The four ng_* rules
share one check over the graph and its complement.

The surveyed graphs and the graphs derived from them (blocks, complements,
spanning-subgraph samples) meet in one table of isomorphism classes per
survey, or per worker process with --jobs > 1.  It holds one Graph per
class, the canonical relabeling, under its canonical form and under each
degree form (each graph relabeled in degree order) and refined form (in
the order of its degree-refinement signatures) met, so a graph is put in
canonical form once per refined form per survey.  Every graph reaches its
class on one route, `_Ctx.class_of`, from its edges and degrees: a
spanning-subgraph sample, whose degrees are read off the sampler's masks,
is built as a Graph only when the table lacks its degree form, and a graph
above the census order is its own Graph and stays out of the table.  A
class's value, and every chromatic search of its rules, is kept on that
Graph by the one replay rule of `budget._kept`: an outcome is stored with
its node cost unless the search ran past the budget, and a later ask is
charged that cost and replayed when its budget has that much left, else it
searches.  So each class is solved once per survey, whether it is
surveyed, derived or both, and a replay gives what solving again would:
reports do not depend on what the table holds, at any budget.
"""

from __future__ import annotations

import operator
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .budget import _kept, as_budget
from .coloring import (
    _every_deletion_lowers,
    bipartite_color,
    chromatic_index_exact,
    chromatic_number,
    classify_chromatic,
    fan_rotation_color,
    fournier_class1_test,
    is_overfull,
    regular_even_class1_test,
    regular_parity_class2_test,
)
from .connectivity import (
    dense_pair_lower_bound,
    edge_connectivity,
    upper_edge_connectivity,
)
from .errors import ParameterError, SizeError, Undecided
from .graphs import (
    Graph,
    _reach,
    bipartition,
    blocks,
    complement,
    encode_graph6,
    is_complete,
    is_tree,
    mask_vertices,
)
from .rd import BOUND_RULES, CHAIN_RULES, FAST_AUX_RULES, rd_bounds, rd_exact

ENUMERATION_MAX_ORDER = 7
# the edge count of the complete graph: any census graph may be searched
SEARCH_EDGE_CAP = ENUMERATION_MAX_ORDER * (ENUMERATION_MAX_ORDER - 1) // 2


# ---------------------------------------------------------------------------
# census enumeration

def _signatures(g: Graph) -> list[int]:
    """Per vertex, its degree-refinement signature: the rank of its class.

    The classes come from up to three rounds that rank each vertex by its
    signature and the sorted signatures of its neighbours, starting from
    the degrees; a round that splits no class ends the refinement, as every
    later round would give the same ranks.  A vertex is ranked by one
    integer: its signature, then its neighbour count in each class in
    ascending signature, each count a digit of a base above n, subtracted
    so that the larger count ranks first.  Two vertices of one signature
    have one degree, so where their sorted tuples of neighbour signatures
    first differ, the one with more neighbours in the lowest class whose
    counts differ holds the smaller signature: both orders agree."""
    n, edges = g.n, g.edges
    sig = list(g.degrees)
    count = len(set(sig))
    # a neighbour of signature s weighs base ** (n - 1 - s) with base 2 ** width
    width = n.bit_length()
    for _ in range(3):
        if count == n:
            break
        weight = [1 << width * (n - 1 - s) for s in sig]
        keys = [s << width * n for s in sig]
        for a, b in edges:
            keys[a] -= weight[b]
            keys[b] -= weight[a]
        rank = {kk: i for i, kk in enumerate(sorted(set(keys)))}
        if len(rank) == count:
            break
        count = len(rank)
        sig = [rank[kk] for kk in keys]
    return sig


def canonical_form(g: Graph, sig: list[int] | None = None) -> tuple[int, tuple]:
    """A label-independent key: (n, the smallest sorted edge tuple over the
    labelings that give each degree-refinement class its own block of
    labels, the classes in signature order).  `sig` is `_signatures(g)`,
    made here unless the caller has made it.

    Among edge tuples of one length, the smallest sorted one belongs to the
    labeling whose upper-triangle adjacency, read row by row ((0,1), (0,2),
    ..., (1,2), ...), is largest.  So labels 0, 1, ... are handed out in
    turn: label a goes to a vertex v of the cell holding position a, and row
    a is largest when v's neighbours come first in every later cell, which
    splits each later cell into neighbours, then the rest, and fixes row a.
    Only the candidates with the largest row are tried, and a branch is
    dropped once its rows fall below those of the best labeling found so
    far.  Once every cell is a single vertex, the branch has one labeling
    left, whose rows are read off the adjacency at once: it beats the best
    labeling only if no row of it would have been dropped.  Of two
    candidates u and v with N(u) - {v} = N(v) - {u}, only one is tried:
    swapping such twins is an automorphism that fixes the search state, so
    both give the same rows."""
    n, edges, adj = g.n, g.edges, g.adj
    if sig is None:
        sig = _signatures(g)
    classes: dict[int, int] = {}
    for v in range(n):
        classes[sig[v]] = classes.get(sig[v], 0) | 1 << v
    cells = [classes[s] for s in sorted(classes)]

    best = -1  # the rows of the best labeling so far, as one integer
    order = []

    def extend(cells: list[int], labeled: list[int], rows: int) -> None:
        nonlocal best, order
        depth = len(labeled)
        if len(cells) == n - depth:  # every cell a single vertex
            last = [cell.bit_length() - 1 for cell in cells]
            for i, v in enumerate(last):
                near = adj[v]
                for u in last[i + 1:]:
                    rows = rows << 1 | near >> u & 1
            if rows > best:
                best, order = rows, labeled + last
            return
        first, later = cells[0], cells[1:]
        top = -1
        choices = []
        rest = first
        while rest:
            bit = rest & -rest
            rest ^= bit
            near = adj[bit.bit_length() - 1]
            row = 0
            for cell in (first ^ bit, *later):
                size = cell.bit_count()
                k = (cell & near).bit_count()
                row = row << size | ((1 << k) - 1) << (size - k)
            if row > top:
                top, choices = row, [bit]
            elif row == top:
                choices.append(bit)
        rows = rows << (n - 1 - depth) | top
        # the best labeling's rows 0..depth: drop the bits of later rows
        if rows < best >> (n - 2 - depth) * (n - 1 - depth) // 2:
            return
        tried: list[int] = []
        for bit in choices:
            v = bit.bit_length() - 1
            near = adj[v]
            if tried and any(adj[u] & ~bit == near & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            # each later cell split into v's neighbours, then the rest
            split = []
            for cell in (first ^ bit, *later):
                inside = cell & near
                if inside:
                    split.append(inside)
                if inside != cell:
                    split.append(cell ^ inside)
            extend(split, labeled + [v], rows)

    extend(cells, [], 0)
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    out = []
    for a, b in edges:
        i, j = label[a], label[b]
        out.append((i, j) if i < j else (j, i))
    out.sort()
    return (n, tuple(out))


def _form_of(n: int, edges, keys) -> tuple[int, int]:
    """The graph with these edges relabeled by ascending vertex key, ties
    broken by vertex, as (n, its upper-triangle adjacency bits): its degree
    form when the keys are its degrees, its refined form when they are its
    signatures (`_signatures`)."""
    label = [0] * n
    for i, v in enumerate(sorted(range(n), key=keys.__getitem__)):
        label[v] = i
    bits = 0
    for a, b in edges:
        i, j = label[a], label[b]
        bits |= 1 << (i * n + j if i < j else j * n + i)
    return n, bits


def _label(table: dict, n: int, edges, degrees, g: Graph | None = None) -> Graph:
    """The one Graph in `table` of the isomorphism class of the graph with
    these edges and vertex degrees, its canonical relabeling.  The graph
    is looked up by its degree form; when the table lacks it, the graph is
    built (unless the caller has, as `g`), its signatures are made once and
    it is looked up by its refined form, and canonical_form(g) is computed,
    from those signatures, only when the table lacks that form too.  The
    table maps each canonical form and each degree and refined form it has
    met to the Graph of that class, which is g itself when g is its own
    canonical relabeling.  Each form is a relabeling of its graph, so an
    equal form is the same labeled graph and names its class, unique or
    not; a form is (n, int) and a key (n, tuple), so the two never
    collide."""
    form = _form_of(n, edges, degrees)
    rep = table.get(form)
    if rep is None:
        if g is None:
            # a census extension's or a sample's edges: valid once sorted
            g = Graph(n, tuple(sorted(edges)))
        sig = _signatures(g)
        refined = _form_of(g.n, g.edges, sig)
        rep = table.get(refined)
        if rep is None:
            key = canonical_form(g, sig)
            rep = table.get(key)
            if rep is None:
                rep = table[key] = g if g.edges == key[1] else Graph(*key)
            table[refined] = rep
        table[form] = rep
    return rep


_CENSUS: dict[int, tuple[Graph, ...]] = {}


def _all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices, one per isomorphism class, as the
    relabeling its canonical form gives, sorted by that form.

    Each graph of order n - 1 is extended by a vertex n - 1 joined to the
    vertices of a mask, and only the masks that give the new vertex the
    minimum degree are kept.  Nothing is lost: deleting a minimum-degree
    vertex w of any graph G on n vertices leaves a graph isomorphic to some
    census graph H, and the extension of H by the image of N(w) is
    isomorphic to G and gives its new vertex the degree of w.  The
    extensions go through one `_label` table per order, which keeps one
    Graph per class, so the census read off it is the one every mask would
    give.  An extension's degree form is read off the degrees of its parent
    and the mask, and `_label` builds the extension as a Graph only when the
    form is new to the table: orders 1 to 7 look up the refined forms of
    1,830 of the 3,131 kept extensions and label 1,350."""
    if n in _CENSUS:
        return _CENSUS[n]
    if n == 1:
        out = (Graph.from_edges(1, []),)
    else:
        table: dict = {}
        for g in _all_graphs(n - 1):
            deg = g.degrees
            # below[t]: the vertices of degree under t; the new vertex, of
            # degree d, has the minimum degree when no vertex has degree
            # under d - 1 and the mask holds those of degree d - 1
            below = [sum(1 << v for v in range(n - 1) if deg[v] < t) for t in range(n)]
            for mask in range(1 << (n - 1)):
                d = mask.bit_count()
                if below[d] & ~mask or d and below[d - 1]:
                    continue
                edges = g.edges + tuple((v, n - 1) for v in mask_vertices(mask))
                degrees = [deg[v] + (mask >> v & 1) for v in range(n - 1)]
                degrees.append(d)
                _label(table, n, edges, degrees)
        out = tuple(sorted(set(table.values()), key=lambda c: c.edges))
    _CENSUS[n] = out
    return out


def _census_key(g: Graph) -> tuple[int, tuple] | None:
    """g's canonical form when g is a graph of the census, which is its own
    canonical relabeling; else None.  Only orders already enumerated are
    looked at: the census of an order is sorted by its edge tuples, so a
    binary search finds g."""
    census = _CENSUS.get(g.n, ())
    i = bisect_left(census, g.edges, key=lambda c: c.edges)
    if i < len(census) and census[i].edges == g.edges:
        return (g.n, g.edges)
    return None


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph on n vertices, one per isomorphism class,
    in a fixed deterministic order."""
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ParameterError(
            f"census enumeration is supported for 1..{ENUMERATION_MAX_ORDER} vertices"
        )
    return tuple(g for g in _all_graphs(n) if g.is_connected())


# ---------------------------------------------------------------------------
# per-graph context shared by the rules

@dataclass(frozen=True)
class SurveyConfig:
    rules: tuple[str, ...] | None = None  # None means every harness rule
    budget_nodes: int | None = None
    jobs: int = 1
    seed: int = 0
    sample_count: int = 10

    def __post_init__(self):
        as_budget(self.budget_nodes)  # reject a budget of no nodes up front
        if self.jobs < 1:
            raise ParameterError("jobs must be a positive count")
        if self.sample_count < 1:
            raise ParameterError("samples must be a positive count")
        if self.rules is not None and not self.rules:
            raise ParameterError("rules must name at least one harness rule")

    def active_rules(self) -> tuple[str, ...]:
        if self.rules is None:
            return tuple(HARNESS_RULE_NAMES)
        unknown = set(self.rules) - set(HARNESS_RULE_NAMES)
        if unknown:
            raise ParameterError(f"unknown harness rules: {sorted(unknown)}")
        return tuple(r for r in HARNESS_RULE_NAMES if r in set(self.rules))


class _Ctx:
    """Lazily computed per-graph quantities, shared by all rules, for a
    connected graph of order at least two (see `check_theorems`).

    `classes` is the `_label` table of isomorphism classes: it holds one
    Graph per class, on which the class's value and searches are kept (see
    `value`), so a graph is labeled once per refined form and its class
    solved once, however many rules and graphs ask about it.  Pass one
    table to every graph of a survey to share them.  A census graph g
    enters the table under its canonical form, which it is (`_census_key`),
    unless its class is there already; then the rules ask that Graph
    instead of g."""

    def __init__(self, g: Graph, config: SurveyConfig, classes: dict | None = None):
        self.config = config
        self.budget = as_budget(config.budget_nodes)
        self._classes = {} if classes is None else classes
        # the Graph of each graph's class, so a graph asked about again is
        # not even put in degree form again
        self._reps: dict[Graph, Graph] = {}
        key = _census_key(g)
        if key is not None:
            g = self._reps[g] = self._classes.setdefault(key, g)
        self.g = g

    @cached_property
    def delta(self) -> int:
        return max(self.g.degrees)

    @cached_property
    def rd(self) -> int | None:
        """The value of the graph itself, kept on its class like the
        derived graphs' (see `rd_of`)."""
        return self.rd_of(self.g)

    def rd_of(self, h: Graph) -> int | None:
        """The value of h from connectivity bounds plus exact search only:
        `CHAIN_RULES` hold none of the facts the derived values test; None
        when the budget ran out, or when h has more than `SEARCH_EDGE_CAP`
        edges and the bounds leave its value open.  The solve runs on the
        Graph of h's class (`class_of`)."""
        rep = self._reps.get(h)
        if rep is None:
            rep = self._reps[h] = self.class_of(h.n, h.edges, h.degrees, h)
        return self.value(rep)

    def class_of(self, n: int, edges, degrees, g: Graph | None = None) -> Graph:
        """The Graph of the class, in the `classes` table, of the graph with
        these edges and vertex degrees, which is `g` when the caller has
        built it (see `_label`).  A graph above the census order is its own
        Graph, built here unless given, and is not stored: the table and the
        census share one order cap, ENUMERATION_MAX_ORDER, up to which
        canonical_form is tested against the permutation search whose keys
        it reproduces."""
        if n > ENUMERATION_MAX_ORDER:
            # a sample's edges are g's sorted edges, less some: valid as they are
            return Graph(n, edges) if g is None else g
        return _label(self._classes, n, edges, degrees, g)

    def value(self, rep: Graph) -> int | None:
        """The value of `rep`, a Graph from `class_of`; None as for
        `rd_of`.

        A class's outcome and node cost depend only on the class and on the
        budget left.  It is kept on its Graph under `CHAIN_RULES` by
        `budget._kept`, with the searches of its χ′ bound, so every later
        ask of the class, from any rule or graph, is charged the stored
        cost and replayed when the budget has that much left, which is what
        solving again would give, and solves otherwise.  A solve that ran
        out of budget keeps nothing."""
        budget = self.budget

        def solve() -> int | None:
            try:
                return rd_exact(
                    rep, budget, max_search_edges=SEARCH_EDGE_CAP, rules=CHAIN_RULES
                ).value
            except SizeError:
                return None

        try:
            return _kept(rep, CHAIN_RULES, budget, solve)
        except Undecided:
            return None

    @cached_property
    def bounds(self):
        return rd_bounds(self.g, self.budget, FAST_AUX_RULES)

    @cached_property
    def lambda_global(self) -> int:
        return edge_connectivity(self.g)

    @cached_property
    def chi_prime(self) -> int | None:
        try:
            cv = classify_chromatic(self.g, self.budget)
        except Undecided:
            return None
        return cv.chromatic_index

    @cached_property
    def chi_prime_exact(self) -> int | None:
        try:
            return chromatic_index_exact(self.g, self.budget)
        except Undecided:
            return None

    @cached_property
    def co(self) -> Graph:
        return complement(self.g)

    def spanning_subgraphs(self):
        """Deterministic sample of proper connected spanning subgraphs, each
        yielded as its sorted edges and its vertex degrees.

        Each sample shuffles g's edges, then walks them, removing each with
        probability one half unless it is a bridge of what is kept, until a
        spanning tree is left.  An edge uv is no bridge when u and v still
        share a neighbour, and else when v is still reached from u."""
        g = self.g
        n, m, edges = g.n, g.m, g.edges
        rng = random.Random(
            zlib.crc32(encode_graph6(g).encode()) ^ (self.config.seed or 0)
        )
        for _ in range(self.config.sample_count):
            order = list(edges)
            rng.shuffle(order)
            adj = list(g.adj)
            left = m
            for u, v in order:
                if left == n - 1:
                    break
                if rng.random() < 0.5:
                    continue
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                if adj[u] & adj[v] or _reach(adj, u, 1 << v) >> v & 1:
                    left -= 1
                else:  # a bridge of what is kept: put it back
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
            if left < m:
                kept = tuple(e for e in edges if adj[e[0]] >> e[1] & 1)
                yield kept, [a.bit_count() for a in adj]


# ---------------------------------------------------------------------------
# the rules

PASS, FAIL, NA = "pass", "fail", "na"

_TABLE = {rule.id: rule for rule in BOUND_RULES}


def _unavailable(h: Graph) -> str:
    """Why `_Ctx.rd_of(h)` left h's value open.  Under CHAIN_RULES the
    bounds catch their own search running out, so past the cap a value is
    open only where the cap refused it."""
    if h.m > SEARCH_EDGE_CAP:
        return f"value unavailable past the search cap of {SEARCH_EDGE_CAP} edges"
    return "value unavailable under the budget"


def _needs_rd(fn):
    def wrapped(ctx: _Ctx):
        if ctx.rd is None:
            return NA, None, _unavailable(ctx.g)
        return fn(ctx)

    return wrapped


def _against(value: int, bound: int, kind: str):
    """The outcome of `value` against a claimed exact, lower or upper bound;
    a one-sided bound met with equality is reported as the witness."""
    if kind == "exact":
        return (PASS if value == bound else FAIL), None, ""
    holds = value >= bound if kind == "lower" else value <= bound
    if not holds:
        return FAIL, None, ""
    return PASS, (bound if value == bound else None), ""


def _table_check(rule_id: str):
    """The harness rule "the searched value satisfies bound-table rule
    `rule_id`"; NA where that rule does not apply or its search runs out
    of budget.  A table rule is read by one harness rule alone, so its
    outcome is not stored; the searches under it are kept on the graph
    (`budget._kept`)."""
    kind = _TABLE[rule_id].kind

    @_needs_rd
    def check(ctx: _Ctx):
        try:
            got = _TABLE[rule_id].value(ctx.g, ctx.budget)
        except Undecided:
            got = None
        if got is None:
            return NA, None, ""
        return _against(ctx.rd, got[0], kind)

    return check


def _rule_lemma_chain(ctx: _Ctx):
    lam, lamp = ctx.lambda_global, upper_edge_connectivity(ctx.g)
    chi = ctx.chi_prime
    if chi is None:
        return NA, None, "chromatic index unavailable"
    top = ctx.delta + 1
    if ctx.rd is not None:
        ok = lam <= lamp <= ctx.rd <= chi <= top
        return (PASS if ok else FAIL), None, ""
    b = ctx.bounds
    ok = lam <= lamp <= b.upper and b.lower <= chi <= top
    return (PASS if ok else FAIL), None, "bounds consistency only"


@_needs_rd
def _rule_tree_rd_one(ctx: _Ctx):
    ok = is_tree(ctx.g) == (ctx.rd == 1)
    return (PASS if ok else FAIL), None, ""


@_needs_rd
def _rule_complete_rd(ctx: _Ctx):
    if not is_complete(ctx.g):
        return NA, None, ""
    return (PASS if ctx.rd == ctx.g.n - 1 else FAIL), None, ""


def _rule_mader_bound(ctx: _Ctx):
    val = dense_pair_lower_bound(ctx.g)
    if val <= 1:
        return NA, None, ""
    lamp = upper_edge_connectivity(ctx.g)
    if lamp < val:
        return FAIL, None, f"pair connectivity {lamp} below {val}"
    return PASS, (val if lamp == val else None), ""


def _rule_critical_min_degree(ctx: _Ctx):
    # criticality by its deletions alone, so the degrees under test do not
    # settle it; `critical_lower` may have colored them already
    g, b = ctx.g, ctx.budget
    try:
        chi = chromatic_number(g, b)
        if not _every_deletion_lowers(g, chi, b):
            return NA, None, ""
    except Undecided:
        return NA, None, ""
    return (PASS if min(g.degrees) >= chi - 1 else FAIL), None, ""


@_needs_rd
def _rule_regular_window(ctx: _Ctx):
    degs = ctx.g.degrees
    if min(degs) != max(degs):
        return NA, None, ""
    k = ctx.delta
    if not k <= ctx.rd <= k + 1:
        return FAIL, None, ""
    return PASS, (ctx.rd if ctx.rd == k + 1 else None), ""


@_needs_rd
def _rule_two_universal_iff(ctx: _Ctx):
    n = ctx.g.n
    two = sum(1 for d in ctx.g.degrees if d == n - 1) >= 2
    ok = two == (ctx.rd == n - 1)
    return (PASS if ok else FAIL), None, ""


@_needs_rd
def _rule_high_rd_degrees(ctx: _Ctx):
    n = ctx.g.n
    if ctx.rd < n - 2:
        return NA, None, ""
    ok = sum(1 for d in ctx.g.degrees if d >= n - 2) >= 2
    return (PASS if ok else FAIL), None, ""


@_needs_rd
def _rule_block_identity(ctx: _Ctx):
    parts = blocks(ctx.g)
    if len(parts) < 2:
        return NA, None, ""
    vals = [ctx.rd_of(blk.graph) for blk in parts]
    if any(v is None for v in vals):
        return NA, None, "a block value was unavailable"
    ok = ctx.rd == max(vals)
    return (PASS if ok else FAIL), None, ""


@_needs_rd
def _rule_subgraph_monotonicity(ctx: _Ctx):
    sampled = checked = 0
    for kept, degrees in ctx.spanning_subgraphs():
        sampled += 1
        val = ctx.value(ctx.class_of(ctx.g.n, kept, degrees))
        if val is None:
            continue
        checked += 1
        if val > ctx.rd:
            witness = encode_graph6(Graph(ctx.g.n, kept))
            return FAIL, None, f"witness {witness} value {val}"
    if not sampled:
        return NA, None, ""
    if checked == 0:
        return NA, None, "no subgraph value settled"
    return PASS, None, ""


# the graph and its complement, both connected: how their two values
# combine, the claimed bound as a function of the order, and its direction
_NG_RULES = {
    "ng_sum_lower": (operator.add, lambda n: n - 2, "lower"),
    "ng_sum_upper": (operator.add, lambda n: 2 * n - 5, "upper"),
    "ng_product_lower": (operator.mul, lambda n: n - 3, "lower"),
    "ng_product_upper": (operator.mul, lambda n: (n - 2) * (n - 3), "upper"),
}


def _ng_check(rule_id: str):
    combine, bound, kind = _NG_RULES[rule_id]

    @_needs_rd
    def check(ctx: _Ctx):
        if ctx.g.n < 4 or not ctx.co.is_connected():
            return NA, None, ""
        rdc = ctx.rd_of(ctx.co)
        if rdc is None:
            return NA, None, f"complement {_unavailable(ctx.co)}"
        return _against(combine(ctx.rd, rdc), bound(ctx.g.n), kind)

    return check


def _rule_class1_fast_paths(ctx: _Ctx):
    chi = ctx.chi_prime_exact
    if chi is None:
        return NA, None, "exact chromatic index unavailable"
    d = ctx.delta
    checks = [ctx.chi_prime == chi]
    if fournier_class1_test(ctx.g):
        checks.append(chi == d)
    if regular_even_class1_test(ctx.g):
        checks.append(chi == d)
    if is_overfull(ctx.g):
        checks.append(chi == d + 1)
    if regular_parity_class2_test(ctx.g):
        checks.append(chi == d + 1)
    return (PASS if all(checks) else FAIL), None, ""


def _rule_koenig_bipartite(ctx: _Ctx):
    if bipartition(ctx.g) is None:
        return NA, None, ""
    ec = bipartite_color(ctx.g)
    chi = ctx.chi_prime_exact
    ok = ec.is_proper() and ec.max_color <= ctx.delta and (
        chi is None or chi == ctx.delta
    )
    return (PASS if ok else FAIL), None, ""


def _rule_vizing_window(ctx: _Ctx):
    ec = fan_rotation_color(ctx.g)
    chi = ctx.chi_prime_exact
    ok = ec.is_proper() and ec.num_colors <= ctx.delta + 1 and (
        chi is None or ctx.delta <= chi <= ctx.delta + 1
    )
    return (PASS if ok else FAIL), None, ""


HARNESS_RULES = (
    ("lemma_chain", _rule_lemma_chain),
    ("tree_rd_one", _rule_tree_rd_one),
    ("cycle_rd_two", _table_check("cycle")),
    ("complete_rd", _rule_complete_rd),
    ("multipartite_rd", _table_check("complete_multipartite")),
    ("mader_bound", _rule_mader_bound),
    ("average_degree_bound", _table_check("floor_average_degree")),
    ("critical_lower", _table_check("color_critical")),
    ("critical_min_degree", _rule_critical_min_degree),
    ("minimal_rd_max_degree", _table_check("chromatic_index_minimal")),
    ("regular_window", _rule_regular_window),
    ("two_universal_iff", _rule_two_universal_iff),
    ("two_leaves_bound", _table_check("two_leaves")),
    ("low_degree_bound", _table_check("one_near_universal_vertex")),
    ("high_rd_degrees", _rule_high_rd_degrees),
    ("block_identity", _rule_block_identity),
    ("subgraph_monotonicity", _rule_subgraph_monotonicity),
    ("regular_bipartite_rd", _table_check("regular_bipartite")),
    ("regular_dense_even_rd", _table_check("regular_dense_even")),
    ("near_complete_regular_rd", _table_check("near_complete_regular")),
    *((name, _ng_check(name)) for name in _NG_RULES),
    ("class1_fast_paths", _rule_class1_fast_paths),
    ("koenig_bipartite", _rule_koenig_bipartite),
    ("vizing_window", _rule_vizing_window),
)
HARNESS_RULE_NAMES = tuple(name for name, _ in HARNESS_RULES)
_RULE_FN = dict(HARNESS_RULES)

NG_RULE_ALIAS = tuple(_NG_RULES)


@dataclass(frozen=True)
class RuleOutcome:
    rule: str
    status: str
    witness_value: int | None
    detail: str


@dataclass(frozen=True)
class TheoremReport:
    graph6: str
    outcomes: tuple[RuleOutcome, ...]


def check_theorems(
    g: Graph, config: SurveyConfig | None = None, classes: dict | None = None
) -> TheoremReport:
    """Every active harness rule on g.  `classes` is the table of
    isomorphism classes, with the values and searches kept on them, shared
    with other graphs checked under the same config (see `_Ctx`).

    The value, and every theorem checked, is about connected graphs of
    order at least two; any other graph gets NA on every rule, decided here
    alone, so the rules may assume such a graph."""
    config = config or SurveyConfig()
    names = config.active_rules()
    if g.n < 2 or not g.is_connected():
        detail = "not a connected graph of order two or more"
        outcomes = [RuleOutcome(name, NA, None, detail) for name in names]
    else:
        # the rules ask a copy of g, or the Graph of its class that the
        # table holds already, so the searches kept on it go with the table
        # (budget._kept): a census graph lives as long as the process
        ctx = _Ctx(Graph(g.n, g.edges), config, classes)
        outcomes = []
        for name in names:
            status, witness, detail = _RULE_FN[name](ctx)
            outcomes.append(RuleOutcome(name, status, witness, detail))
    return TheoremReport(encode_graph6(g), tuple(outcomes))


# ---------------------------------------------------------------------------
# running a survey

@dataclass(frozen=True)
class SurveyResult:
    total: int
    rule_stats: tuple[tuple[str, int, int, int], ...]  # rule, pass, fail, na
    violations: tuple[tuple[str, str, str], ...]  # graph6, rule, detail
    witnesses: tuple[tuple[str, str, int], ...]  # rule, graph6, value


def _survey_part(args) -> list[TheoremReport]:
    """Check a list of graphs with one table of isomorphism classes."""
    graphs, config = args
    classes: dict = {}
    return [check_theorems(g, config, classes) for g in graphs]


def run_survey(graphs, config: SurveyConfig | None = None) -> SurveyResult:
    config = config or SurveyConfig()
    names = config.active_rules()
    graphs = list(graphs)
    jobs = min(config.jobs, len(graphs))
    if jobs > 1:
        # imported here, so that importing the package does not load it
        import multiprocessing

        # one part per worker, dealt out in turn, so each worker keeps one table
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_survey_part, [(graphs[i::jobs], config) for i in range(jobs)])
        reports = [None] * len(graphs)
        for i, part in enumerate(parts):
            reports[i::jobs] = part
    else:
        reports = _survey_part((graphs, config))

    stats = {name: [0, 0, 0] for name in names}
    violations = []
    witnesses = []
    for rep in reports:
        for oc in rep.outcomes:
            row = stats[oc.rule]
            if oc.status == PASS:
                row[0] += 1
            elif oc.status == FAIL:
                row[1] += 1
                violations.append((rep.graph6, oc.rule, oc.detail))
            else:
                row[2] += 1
            if oc.witness_value is not None:
                witnesses.append((oc.rule, rep.graph6, oc.witness_value))
    rule_stats = tuple((name, *stats[name]) for name in names)
    return SurveyResult(len(graphs), rule_stats, tuple(violations), tuple(witnesses))


WITNESS_PRINT_CAP = 5


def survey_to_text(result: SurveyResult) -> str:
    lines = [f"SURVEY graphs={result.total}"]
    for name, p, f, na in result.rule_stats:
        lines.append(f"RULE {name} pass={p} fail={f} na={na}")
    by_rule: dict[str, list[tuple[str, int]]] = {}
    for rule, g6, val in result.witnesses:
        by_rule.setdefault(rule, []).append((g6, val))
    for name, _, _, _ in result.rule_stats:
        shown = by_rule.get(name, [])
        for g6, val in shown[:WITNESS_PRINT_CAP]:
            lines.append(f"WITNESS {name} {g6} value={val}")
        if len(shown) > WITNESS_PRINT_CAP:
            lines.append(f"WITNESS {name} (+{len(shown) - WITNESS_PRINT_CAP} more)")
    for g6, rule, detail in result.violations:
        suffix = f" {detail}" if detail else ""
        lines.append(f"VIOLATION {g6} {rule}{suffix}")
    if result.violations:
        lines.append(f"RESULT violations={len(result.violations)}")
    else:
        lines.append("RESULT ok")
    return "\n".join(lines) + "\n"
