"""The ledger: every user-visible output of the package, one line per graph.

Each line of `tests/data/ledger.txt` reads

    graph6 none=… chain=… all=… construct=… chromatic=… vbuilt=… vrandom=…

for one input graph: the 1,000 inputs of the search7 benchmark workload
(the census of orders 2..7, Petersen and GP(6..9, 2)), then the six graphs
whose search backtracks (`_refutation_graphs` in `tests/test_rd.py`).
Every call runs on a fresh copy of the graph, under its own Budget.

- `none`, `chain`, `all`: `rd_exact` under no rules, `CHAIN_RULES` and
  every rule, with `max_search_edges=max(21, m)` as in search7.  Value,
  method, search nodes, nodes spent, and a crc32 of the pinning rule, the
  note, the bounds and the coloring.
- `construct`: `construct_rd_coloring`.  Method, nodes spent, crc32 of the
  colors.
- `chromatic`: `chromatic_coloring`.  Verdict (1 or 2), nodes spent, crc32
  of the verdict record and the colors.
- `vbuilt`, `vrandom`: `verify_rd_coloring` on the constructed coloring and
  on a random one with palette 1..Δ, seeded by the crc32 of the graph6
  string.  ok or fail, nodes spent, crc32 of the certificates and the
  failing pair.

Each call but `all` that spends two nodes or more must also run out under
one node less: the charges are those of the work, not of a count kept
apart from it.  Under all rules a short budget skips a costly rule
instead, by design.

From the repository root, `python tests/ledger.py` rewrites the file with
this tree's package; `tests/test_ledger.py` recomputes every line and
names the first graph and field that differ.  A ledger tells a moved
output from a kept one, but not an intended change from a wrong one.
"""

from __future__ import annotations

import random
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "data" / "ledger.txt"
if __name__ == "__main__":  # a script reads this tree's package
    sys.path.insert(0, str(ROOT / "src"))

from rdnum import (  # noqa: E402
    CHAIN_RULES,
    Budget,
    EdgeColoring,
    Graph,
    Undecided,
    chromatic_coloring,
    construct_rd_coloring,
    encode_graph6,
    rd_exact,
    verify_rd_coloring,
)

from test_rd import _refutation_graphs, _search7_graphs  # noqa: E402

ALL_RULES = None  # rd_exact's default: every rule


def graphs() -> list[Graph]:
    """The graphs of the ledger, in its line order."""
    return _search7_graphs() + _refutation_graphs()


def _crc(value) -> str:
    return f"{zlib.crc32(repr(value).encode()):08x}"


def _run(name: str, code: str, g: Graph, call, probe: bool = True):
    """call(fresh copy of g, budget) and the nodes it spent; with `probe`,
    also check that it raises Undecided one node short of that."""
    budget = Budget()
    out = call(Graph(g.n, g.edges), budget)
    if probe and budget.spent > 1:  # a Budget holds at least one node
        try:
            call(Graph(g.n, g.edges), Budget(budget.spent - 1))
        except Undecided:
            pass
        else:
            raise AssertionError(
                f"{code} {name}: finished under {budget.spent - 1} nodes "
                f"after spending {budget.spent}"
            )
    return out, budget.spent


def _exact(name: str, code: str, g: Graph, rules) -> str:
    res, spent = _run(
        name, code, g,
        lambda h, b: rd_exact(h, b, max_search_edges=max(21, h.m), rules=rules),
        probe=rules is not ALL_RULES,
    )
    colors = res.coloring.colors if res.coloring is not None else None
    digest = _crc((res.rule, res.note, res.bounds, colors))
    return f"{res.value},{res.method},{res.search_nodes},{spent},{digest}"


def _verified(name: str, code: str, g: Graph, colors) -> str:
    report, spent = _run(
        name, code, g, lambda h, b: verify_rd_coloring(EdgeColoring(h, colors), b)
    )
    verdict = "ok" if report.ok else "fail"
    return f"{verdict},{spent},{_crc((report.certificates, report.failing_pair))}"


def ledger_line(g: Graph) -> str:
    """The ledger line of g."""
    code = encode_graph6(g)
    fields = {
        name: _exact(name, code, g, rules)
        for name, rules in (("none", ()), ("chain", CHAIN_RULES), ("all", ALL_RULES))
    }
    (built, method), spent = _run("construct", code, g, construct_rd_coloring)
    fields["construct"] = f"{method},{spent},{_crc(built.colors)}"
    (cv, ec), spent = _run("chromatic", code, g, chromatic_coloring)
    fields["chromatic"] = f"{cv.verdict},{spent},{_crc((cv, ec.colors))}"
    fields["vbuilt"] = _verified("vbuilt", code, g, built.colors)
    rng = random.Random(zlib.crc32(code.encode()))
    palette = max(g.degrees)
    random_colors = tuple(rng.randint(1, palette) for _ in g.edges)
    fields["vrandom"] = _verified("vrandom", code, g, random_colors)
    return " ".join([code] + [f"{k}={v}" for k, v in fields.items()])


def first_difference(want: str, got: str) -> str | None:
    """Where two lines part: the graph and the first field that differs,
    with both values; None when they agree."""
    if want == got:
        return None
    code, *want_fields = want.split(" ")
    got_code, *got_fields = got.split(" ")
    if code != got_code:
        return f"line for {code} now holds graph {got_code}"
    for w, g in zip(want_fields, got_fields):
        if w != g:
            field = w.partition("=")[0]
            return f"{code} {field}: {w.partition('=')[2]} became {g.partition('=')[2]}"
    return f"{code}: {want!r} became {got!r}"


def main() -> int:
    lines = [ledger_line(g) for g in graphs()]
    LEDGER.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} lines to {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
