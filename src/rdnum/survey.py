"""Exhaustive theorem checking over small graph censuses.

Every harness rule states an inequality, identity, or implication about the
rainbow disconnection number (or the chromatic machinery underneath it) and
is checked on each graph of a survey.  Primary values are recomputed from
local edge connectivity plus exact search only, so the family formulas under
test never feed their own verification.  Reports are byte-identical across
runs and across --jobs settings.

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
"""

from __future__ import annotations

import multiprocessing
import operator
import random
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .budget import DEFAULT_NODE_BUDGET, Budget
from .coloring import (
    bipartite_color,
    chromatic_index_exact,
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
from .errors import ParameterError, SizeError, StructureError, Undecided
from .graphs import (
    Graph,
    bipartition,
    blocks,
    complement,
    encode_graph6,
    is_complete,
    is_tree,
    mask_vertices,
    normalize_edge,
    parse_graph6,
)
from .rd import BOUND_RULES, CHAIN_RULES, FAST_AUX_RULES, rd_bounds, rd_exact

ENUMERATION_MAX_ORDER = 7


# ---------------------------------------------------------------------------
# census enumeration

def canonical_form(g: Graph) -> tuple[int, tuple]:
    """A label-independent key: the smallest edge tuple over vertex
    relabelings compatible with iterated degree-signature classes."""
    sig = list(g.degrees)
    for _ in range(3):
        keys = [
            (sig[v], tuple(sorted(sig[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        rank = {kk: i for i, kk in enumerate(sorted(set(keys)))}
        sig = [rank[keys[v]] for v in range(g.n)]
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(sig[v], []).append(v)
    groups = [classes[s] for s in sorted(classes)]

    best = None

    def assign(idx: int, label: dict[int, int]) -> None:
        nonlocal best
        if idx == len(groups):
            edges = tuple(
                sorted(normalize_edge(label[a], label[b]) for a, b in g.edges)
            )
            if best is None or edges < best:
                best = edges
            return
        base = sum(len(groups[i]) for i in range(idx))
        for perm in permutations(groups[idx]):
            for offset, old in enumerate(perm):
                label[old] = base + offset
            assign(idx + 1, label)

    assign(0, {})
    return (g.n, best)


_CENSUS: dict[int, tuple[Graph, ...]] = {}


def _all_graphs(n: int) -> tuple[Graph, ...]:
    if n in _CENSUS:
        return _CENSUS[n]
    if n == 1:
        out = (Graph.from_edges(1, []),)
    else:
        seen: dict[tuple, Graph] = {}
        for g in _all_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                edges = list(g.edges)
                edges.extend((v, n - 1) for v in mask_vertices(mask))
                cand = Graph.from_edges(n, edges)
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = Graph.from_edges(n, key[1])
        out = tuple(seen[k] for k in sorted(seen))
    _CENSUS[n] = out
    return out


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph on n vertices, one per isomorphism class,
    in a fixed deterministic order."""
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ParameterError(
            f"census enumeration is supported for 1..{ENUMERATION_MAX_ORDER} vertices"
        )
    return tuple(g for g in _all_graphs(n) if g.is_connected())


def load_graph6_stream(text: str) -> list[Graph]:
    """Parse one graph6 string per line; blank lines and '>' headers are
    skipped."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(">"):
            continue
        out.append(parse_graph6(line))
    return out


# ---------------------------------------------------------------------------
# per-graph context shared by the rules

@dataclass(frozen=True)
class SurveyConfig:
    rules: tuple[str, ...] | None = None  # None means every harness rule
    budget_nodes: int | None = None
    jobs: int = 1
    seed: int = 0
    sample_count: int = 10
    max_search_edges: int = 21

    def active_rules(self) -> tuple[str, ...]:
        if self.rules is None:
            return tuple(HARNESS_RULE_NAMES)
        unknown = set(self.rules) - set(HARNESS_RULE_NAMES)
        if unknown:
            raise ParameterError(f"unknown harness rules: {sorted(unknown)}")
        return tuple(r for r in HARNESS_RULE_NAMES if r in set(self.rules))


class _Ctx:
    """Lazily computed per-graph quantities, shared by all rules."""

    def __init__(self, g: Graph, config: SurveyConfig):
        self.g = g
        self.config = config
        self.budget = Budget(config.budget_nodes or DEFAULT_NODE_BUDGET)
        self._table: dict[str, tuple | None] = {}

    @cached_property
    def delta(self) -> int:
        return max(self.g.degrees)

    @cached_property
    def rd(self) -> int | None:
        """The value from connectivity bounds plus exact search only."""
        try:
            return rd_exact(
                self.g,
                self.budget,
                max_search_edges=self.config.max_search_edges,
                rules=CHAIN_RULES,
            ).value
        except (Undecided, SizeError, StructureError):
            return None

    def rd_of(self, h: Graph) -> int | None:
        """Auxiliary value for derived graphs; all cheap rules allowed."""
        try:
            return rd_exact(
                h,
                self.budget,
                max_search_edges=self.config.max_search_edges,
                rules=FAST_AUX_RULES,
            ).value
        except (Undecided, SizeError, StructureError):
            return None

    def table_value(self, rule_id: str) -> tuple | None:
        """What bound-table rule `rule_id` gives on this graph: the bound
        and its details, or None when the rule does not apply or the budget
        ran out.  Settled outcomes are kept, so each is computed once."""
        if rule_id not in self._table:
            try:
                self._table[rule_id] = _TABLE[rule_id].value(self.g, self.budget)
            except Undecided:
                return None
        return self._table[rule_id]

    @cached_property
    def bounds(self):
        try:
            return rd_bounds(self.g, self.budget, FAST_AUX_RULES)
        except StructureError:
            return None

    @cached_property
    def lambda_global(self) -> int:
        return edge_connectivity(self.g)

    @cached_property
    def lambda_plus(self) -> int | None:
        try:
            return upper_edge_connectivity(self.g)
        except StructureError:
            return None

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
        """Deterministic sample of proper connected spanning subgraphs."""
        g = self.g
        rng = random.Random(
            zlib.crc32(encode_graph6(g).encode()) ^ (self.config.seed or 0)
        )
        out = []
        for _ in range(self.config.sample_count):
            edges = list(g.edges)
            rng.shuffle(edges)
            kept = list(g.edges)
            for e in edges:
                if len(kept) == g.n - 1:
                    break
                if rng.random() < 0.5:
                    continue
                trial = [x for x in kept if x != e]
                h = Graph(g.n, tuple(sorted(trial)))
                if h.is_connected():
                    kept = trial
            if len(kept) < g.m:
                out.append(Graph(g.n, tuple(sorted(kept))))
        return out


# ---------------------------------------------------------------------------
# the rules

PASS, FAIL, NA = "pass", "fail", "na"

_TABLE = {rule.id: rule for rule in BOUND_RULES}


def _needs_rd(fn):
    def wrapped(ctx: _Ctx):
        if ctx.g.n < 2:
            return NA, None, "order one"
        if ctx.rd is None:
            return NA, None, "value unavailable under the budget"
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
    `rule_id`"; NA where that rule does not apply."""
    kind = _TABLE[rule_id].kind

    @_needs_rd
    def check(ctx: _Ctx):
        got = ctx.table_value(rule_id)
        if got is None:
            return NA, None, ""
        return _against(ctx.rd, got[0], kind)

    return check


def _rule_lemma_chain(ctx: _Ctx):
    if ctx.g.n < 2:
        return NA, None, "order one"
    lam, lamp, chi = ctx.lambda_global, ctx.lambda_plus, ctx.chi_prime
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
    if ctx.g.n < 2:
        return NA, None, "order one"
    val = dense_pair_lower_bound(ctx.g)
    if val <= 1:
        return NA, None, ""
    lamp = ctx.lambda_plus
    if lamp < val:
        return FAIL, None, f"pair connectivity {lamp} below {val}"
    return PASS, (val if lamp == val else None), ""


def _rule_critical_min_degree(ctx: _Ctx):
    if ctx.g.n < 2:
        return NA, None, "order one"
    got = ctx.table_value("color_critical")  # (chromatic number - 1, ...)
    if got is None:
        return NA, None, ""
    ok = min(ctx.g.degrees) >= got[0]
    return (PASS if ok else FAIL), None, ""


@_needs_rd
def _rule_regular_window(ctx: _Ctx):
    degs = ctx.g.degrees
    if min(degs) != max(degs) or ctx.delta < 1:
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
    subs = ctx.spanning_subgraphs()
    if not subs:
        return NA, None, ""
    checked = 0
    for h in subs:
        val = ctx.rd_of(h)
        if val is None:
            continue
        checked += 1
        if val > ctx.rd:
            return FAIL, None, f"witness {encode_graph6(h)} value {val}"
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
            return NA, None, ""
        return _against(combine(ctx.rd, rdc), bound(ctx.g.n), kind)

    return check


def _rule_class1_fast_paths(ctx: _Ctx):
    if ctx.g.m == 0:
        return NA, None, ""
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
    if ctx.g.m == 0 or bipartition(ctx.g) is None:
        return NA, None, ""
    ec = bipartite_color(ctx.g)
    chi = ctx.chi_prime_exact
    ok = ec.is_proper() and ec.max_color <= ctx.delta and (
        chi is None or chi == ctx.delta
    )
    return (PASS if ok else FAIL), None, ""


def _rule_vizing_window(ctx: _Ctx):
    if ctx.g.m == 0:
        return NA, None, ""
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


def check_theorems(g: Graph, config: SurveyConfig | None = None) -> TheoremReport:
    config = config or SurveyConfig()
    ctx = _Ctx(g, config)
    outcomes = []
    for name in config.active_rules():
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


def _survey_worker(args) -> TheoremReport:
    graph6, config = args
    return check_theorems(parse_graph6(graph6), config)


def run_survey(graphs, config: SurveyConfig | None = None) -> SurveyResult:
    config = config or SurveyConfig()
    names = config.active_rules()
    items = [(encode_graph6(g), config) for g in graphs]
    if config.jobs > 1 and len(items) > 1:
        with multiprocessing.Pool(config.jobs) as pool:
            reports = pool.map(_survey_worker, items, chunksize=8)
    else:
        reports = [_survey_worker(it) for it in items]

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
    rule_stats = tuple(
        (name, stats[name][0], stats[name][1], stats[name][2]) for name in names
    )
    return SurveyResult(len(items), rule_stats, tuple(violations), tuple(witnesses))


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
