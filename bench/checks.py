"""Checks of the program's outputs that do not use the program.

Everything here works on plain data: an order n, a sorted tuple of edges
(u, v) with u < v, and a tuple of colors parallel to the edges.  Nothing is
imported from rdnum, so a fault in the package cannot hide itself by
agreeing with its own checker.  Each check returns None when the output is
right and a one-line reason when it is not.

Cuts are found by brute force over bipartitions: a vertex pair has a
(rainbow) edge cut exactly when some side containing one of them and not
the other has a (rainbow) set of crossing edges, because the boundary of a
component left after deleting any cut is itself a bipartition cut inside it.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

# Census counts from the literature, used to check the census itself and the
# survey's per-rule tallies.
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
ALL_GRAPHS_7 = 1044  # OEIS A000088, connected or not
TREES_7 = 11  # OEIS A000055
CONNECTED_BIPARTITE_7 = 44  # OEIS A005142
# complete multipartite graphs with at least two parts: partitions of 7 into
# at least two parts, p(7) - 1 = 15 - 1 (OEIS A000041)
MULTIPARTITE_7 = 14
# connected regular graphs of order 7: C7, the two 4-regular graphs, K7
REGULAR_7 = 4
# a graph and its complement are never both disconnected, so the connected
# graphs whose complement is disconnected are the complements of the 1044 - 853
# disconnected graphs
CONNECTED_COMPLEMENT_7 = CONNECTED_GRAPHS[7] - (ALL_GRAPHS_7 - CONNECTED_GRAPHS[7])
SURVEY_RULE_COUNT = 27


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def small_sides(n: int, edges, limit: int) -> list[tuple[int, int]]:
    """Every side S (vertex 0 in S, S not all vertices) with at most `limit`
    crossing edges, as (S, crossing count).  Walks all 2^(n-1) sides in Gray
    code order, so each step moves one vertex across."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    side, crossing = 1, adj[0].bit_count()
    out = [(side, crossing)] if crossing <= limit and side != full else []
    for i in range(1, 1 << (n - 1)):
        x = (i & -i).bit_length()  # bit t of the Gray code moves vertex t + 1
        side ^= 1 << x
        # x's edges to the rest of the side stop crossing when x joins it,
        # and start crossing when x leaves it
        to_side = (adj[x] & side).bit_count()
        deg = adj[x].bit_count()
        crossing += deg - 2 * to_side if side >> x & 1 else 2 * to_side - deg
        if crossing <= limit and side != full:
            out.append((side, crossing))
    return out


def _signatures(n: int, sides) -> list[int]:
    """Per vertex, the set of listed sides containing it: two vertices are
    separated by one of the sides exactly when their signatures differ."""
    sig = [0] * n
    for i, s in enumerate(sides):
        for v in range(n):
            if s >> v & 1:
                sig[v] |= 1 << i
    return sig


def lambda_plus(n: int, edges) -> int:
    """The largest local edge connectivity over vertex pairs."""
    degs = [d.bit_count() for d in adjacency(n, edges)]
    top = max(degs)
    sides = small_sides(n, edges, top - 1)
    for t in range(top, 0, -1):
        sig = _signatures(n, [s for s, c in sides if c < t])
        if len(set(sig)) < n:
            return t
    raise ValueError("a graph on two or more vertices has a connected pair")


def rainbow_sides(n: int, edges, colors) -> list[int]:
    """Sides whose crossing edges carry pairwise distinct colors."""
    out = []
    for side, _ in small_sides(n, edges, len(set(colors))):
        seen = [c for (a, b), c in zip(edges, colors) if (side >> a & 1) != (side >> b & 1)]
        if len(seen) == len(set(seen)):
            out.append(side)
    return out


def first_pair_without_rainbow_cut(n: int, edges, colors):
    """The first pair (u, v), u < v in lexicographic order, that no rainbow
    cut separates, or None when every pair has one."""
    sig = _signatures(n, rainbow_sides(n, edges, colors))
    for u, v in combinations(range(n), 2):
        if sig[u] == sig[v]:
            return (u, v)
    return None


def _separates(n: int, edges, removed, u: int, v: int) -> bool:
    gone = set(removed)
    nbr = [[] for _ in range(n)]
    for e in edges:
        if e not in gone:
            nbr[e[0]].append(e[1])
            nbr[e[1]].append(e[0])
    seen = {u}
    todo = deque([u])
    while todo:
        x = todo.popleft()
        for y in nbr[x]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return v not in seen


def check_certificate(n: int, edges, colors, cert) -> str | None:
    """A certificate names a pair, a side and the crossing edges with their
    colors.  Its crossing list must be exactly the edges leaving the side,
    with the coloring's colors, all distinct, and deleting them must cut u
    from v."""
    u, v, side = cert.u, cert.v, cert.side
    if not (0 <= u < n and 0 <= v < n) or u == v:
        return f"certificate pair ({u}, {v}) is not a pair of vertices"
    if not side >> u & 1 or side >> v & 1 or side >> n:
        return f"certificate side {side:#x} does not hold {u} without {v}"
    want = sorted(
        ((a, b), c) for (a, b), c in zip(edges, colors) if (side >> a & 1) != (side >> b & 1)
    )
    got = sorted((tuple(e), c) for e, c in cert.crossing)
    if got != want:
        return f"certificate for ({u}, {v}) lists {got}, the side crosses {want}"
    cols = [c for _, c in want]
    if len(cols) != len(set(cols)):
        return f"certificate for ({u}, {v}) repeats a color"
    if not _separates(n, edges, [e for e, _ in want], u, v):
        return f"certificate for ({u}, {v}) does not separate the pair"
    return None


def check_verdict(n: int, edges, colors, ok: bool, certificates, failing_pair) -> str | None:
    """A verification report must certify the pairs in lexicographic order,
    each certificate must hold, and the verdict must match brute force: a
    valid coloring has a cut for every pair, and an invalid one names the
    first pair without a cut."""
    pairs = list(combinations(range(n), 2))
    expect = first_pair_without_rainbow_cut(n, edges, colors)
    if ok:
        if expect is not None:
            return f"verdict valid, but pair {expect} has no rainbow cut"
        if failing_pair is not None:
            return "a valid verdict names a failing pair"
        certified = pairs
    else:
        if expect is None:
            return f"verdict invalid at {failing_pair}, but every pair has a rainbow cut"
        if failing_pair is None or tuple(failing_pair) != expect:
            return f"verdict names {failing_pair}, the first pair without a cut is {expect}"
        certified = pairs[: pairs.index(expect)]
    if len(certificates) != len(certified):
        return f"{len(certificates)} certificates for {len(certified)} certified pairs"
    for pair, cert in zip(certified, certificates):
        if (cert.u, cert.v) != pair:
            return f"certificate for ({cert.u}, {cert.v}) where {pair} was due"
        why = check_certificate(n, edges, colors, cert)
        if why:
            return why
    return None


def check_value(n: int, edges, value: int, colors) -> str | None:
    """An exact value lies between the brute-force largest local edge
    connectivity and min(max degree + 1, n - 1); a coloring returned with
    it uses at most that many colors and gives every pair a rainbow cut."""
    lo = lambda_plus(n, edges)
    hi = min(max(d.bit_count() for d in adjacency(n, edges)) + 1, n - 1)
    if not lo <= value <= hi:
        return f"value {value} outside [{lo}, {hi}]"
    if colors is not None:
        if len(colors) != len(edges) or max(colors) > value or min(colors) < 1:
            return f"coloring uses colors outside 1..{value}"
        bad = first_pair_without_rainbow_cut(n, edges, colors)
        if bad is not None:
            return f"returned coloring leaves pair {bad} without a rainbow cut"
    return None


def check_census(counts: dict[int, int]) -> str | None:
    """Graphs per order must match the connected-graph counts."""
    for order, got in counts.items():
        if got != CONNECTED_GRAPHS[order]:
            return f"order {order}: {got} connected graphs, the literature has {CONNECTED_GRAPHS[order]}"
    return None


def check_survey_report(text: str) -> str | None:
    """The order-7 survey report: no violation, every graph counted by every
    rule, and the tallies that follow from the census counts."""
    lines = text.splitlines()
    if not lines or lines[0] != f"SURVEY graphs={CONNECTED_GRAPHS[7]}":
        return f"report opens {lines[:1]}, want SURVEY graphs={CONNECTED_GRAPHS[7]}"
    if lines[-1] != "RESULT ok":
        return f"report ends {lines[-1]!r}"
    if any(line.startswith("VIOLATION") for line in lines):
        return "report has a VIOLATION line"
    rules = {}
    for line in lines:
        if line.startswith("RULE "):
            name, *fields = line.split()[1:]
            rules[name] = {k: int(x) for k, x in (kv.split("=") for kv in fields)}
    if len(rules) != SURVEY_RULE_COUNT:
        return f"{len(rules)} RULE lines, want {SURVEY_RULE_COUNT}"
    for name, t in rules.items():
        if t["pass"] + t["fail"] + t["na"] != CONNECTED_GRAPHS[7]:
            return f"rule {name} counts {t} do not add up to {CONNECTED_GRAPHS[7]}"
    want_pass = {
        "cycle_rd_two": 1,
        "complete_rd": 1,
        "multipartite_rd": MULTIPARTITE_7,
        "regular_window": REGULAR_7,
        "koenig_bipartite": CONNECTED_BIPARTITE_7,
    }
    for name, want in want_pass.items():
        if rules.get(name, {}).get("pass") != want:
            return f"rule {name} passes {rules.get(name, {}).get('pass')}, want {want}"
    for name in ("ng_sum_lower", "ng_sum_upper", "ng_product_lower", "ng_product_upper"):
        t = rules.get(name)
        if t is None or t["pass"] + t["fail"] != CONNECTED_COMPLEMENT_7:
            return f"rule {name} applies to {t}, want {CONNECTED_COMPLEMENT_7} graphs"
    t = rules.get("subgraph_monotonicity")
    if t is None or t["na"] != TREES_7:
        return f"subgraph_monotonicity na is {t and t['na']}, want the {TREES_7} trees"
    return None
