"""Command line interface.

Subcommands:
  analyze     bounds and (with --exact or --witness) the exact value for one graph
  color      build a rainbow disconnection coloring for one graph
  verify     recheck a coloring file and print one cut certificate per pair
  construct  emit reference families (extremal, ng-sharp)
  survey     run the theorem harness over a census or a graph6 file

Graphs are given as graph6 strings or as edge lists ("n m" header then one
"u v" pair per line); "-" reads stdin.  Input whose first line, past
blank lines and '>' headers, starts with a digit is an edge list, since no
graph6 string starts with one; any other is a graph6 stream.  Diagnostics
go to stderr.  Exit codes: 0 success, 1 failed verification or survey
violations, 2 bad input or parameters, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from .budget import DEFAULT_NODE_BUDGET, Budget
from .coloring import read_coloring, structural_class, write_coloring
from .connectivity import edge_connectivity, upper_edge_connectivity
from .errors import FormatError, ParameterError, RdError, Undecided
from .graphs import (
    Graph,
    basic_stats,
    complement,
    encode_graph6,
    load_graph6_stream,
    read_graphs,
)
from .rd import (
    DEFAULT_SEARCH_EDGE_CAP,
    certificate_to_text,
    construct_extremal_graph,
    construct_ng_sharp_graph,
    construct_rd_coloring,
    rd_bounds,
    rd_exact,
    verify_rd_coloring,
)
from .survey import (
    ENUMERATION_MAX_ORDER,
    NG_RULE_ALIAS,
    SurveyConfig,
    enumerate_connected_graphs,
    run_survey,
    survey_to_text,
)

UNDEFINED = (
    "rainbow disconnection number is defined for connected graphs "
    "with at least two vertices"
)


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    return arg


def _some_graphs(graphs: list[Graph]) -> list[Graph]:
    if not graphs:
        raise FormatError("no graph in input")
    return graphs


def _parse_one_graph(text: str) -> Graph:
    graphs = _some_graphs(read_graphs(text))
    if len(graphs) > 1:
        raise ParameterError(
            "input holds several graphs; this command takes one (see survey --in)"
        )
    return graphs[0]


def _resolve_budget(args) -> Budget:
    if getattr(args, "budget", None) is not None:
        return Budget(args.budget)
    env = os.environ.get("RD_BUDGET")
    if env:
        try:
            return Budget(int(env))
        except ValueError as exc:
            raise ParameterError(f"RD_BUDGET is not an integer: {env!r}") from exc
    return Budget(DEFAULT_NODE_BUDGET)


def _atomic_write(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> int:
    g = _parse_one_graph(_read_text(args.graph))
    budget = _resolve_budget(args)
    stats = basic_stats(g)
    print(f"n = {stats.n}")
    print(f"m = {stats.m}")
    print(f"degrees = {stats.min_degree}..{stats.max_degree}")
    print(f"connected = {'yes' if stats.connected else 'no'}")
    if not stats.connected or g.n < 2:
        print(UNDEFINED, file=sys.stderr)
        return 2
    print(f"lambda = {edge_connectivity(g)}")
    print(f"lambda_plus = {upper_edge_connectivity(g)}")
    cv = structural_class(g)
    if cv is None:
        print(f"chromatic_index in {stats.max_degree}..{stats.max_degree + 1}")
    else:
        print(f"chromatic_index = {cv.chromatic_index} ({cv.method})")

    try:
        if args.exact or args.witness:
            res = rd_exact(g, budget, max_search_edges=args.max_edges)
            bounds = res.bounds
        else:
            res = None
            bounds = rd_bounds(g, budget)
    except Undecided as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None:
            for entry in partial.entries:
                print(f"bound {entry.rule} {entry.kind} {entry.value}")
            print(f"rd_lower = {partial.lower}")
            print(f"rd_upper = {partial.upper}")
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3

    for entry in bounds.entries:
        print(f"bound {entry.rule} {entry.kind} {entry.value} :: {entry.statement}")
    print(f"rd_lower = {bounds.lower}")
    print(f"rd_upper = {bounds.upper}")
    if res is not None:
        if res.method == "rules":
            print(f"rd = {res.value} (rule: {res.rule})")
        else:
            print(f"rd = {res.value} (search, {res.search_nodes} nodes)")
        if res.note:
            print(f"note: {res.note}")
        if args.witness:
            _write_witness(g, res, args.witness, budget)
    elif bounds.exact_value() is not None:
        print(f"rd = {bounds.exact_value()}")
    return 0


def _write_witness(g: Graph, res, prefix: str, budget: Budget) -> None:
    ec = res.coloring
    label = "search coloring"
    if ec is None:
        ec, method = construct_rd_coloring(g, budget)
        label = f"constructed ({method})"
        if ec.num_colors > res.value:
            print(
                f"witness skipped: construction used {ec.num_colors} colors, "
                f"value is {res.value}",
                file=sys.stderr,
            )
            return
    report = verify_rd_coloring(ec, budget)
    if not report.ok:
        raise RdError(f"the {label} fails verification at pair {report.failing_pair}")
    _atomic_write(prefix + ".coloring", write_coloring(ec))
    cert_lines = [certificate_to_text(c) for c in report.certificates]
    _atomic_write(prefix + ".certificates", "\n".join(cert_lines) + "\n")
    print(f"witness = {prefix}.coloring, {prefix}.certificates ({label})")


def _cmd_color(args) -> int:
    g = _parse_one_graph(_read_text(args.graph))
    budget = _resolve_budget(args)
    ec, method = construct_rd_coloring(g, budget)
    print(f"colors = {ec.num_colors}")
    print(f"construction = {method}")
    if args.out:
        _atomic_write(args.out, write_coloring(ec))
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    ec = read_coloring(_read_text(args.coloring))
    if ec.graph.n < 2 or not ec.graph.is_connected():
        print(UNDEFINED, file=sys.stderr)
        return 2
    report = verify_rd_coloring(ec, _resolve_budget(args))
    if not report.ok:
        u, v = report.failing_pair
        print(f"FAIL pair {u} {v}")
        return 1
    for cert in report.certificates:
        print(certificate_to_text(cert))
    print(f"OK pairs={len(report.certificates)} colors={ec.num_colors}")
    return 0


def _cmd_construct(args) -> int:
    if args.family == "extremal":
        if args.k is None:
            raise ParameterError("extremal needs both n and k")
        g, ec = construct_extremal_graph(args.n, args.k)
        print(f"graph6 = {encode_graph6(g)}")
        print(f"n = {g.n}")
        print(f"m = {g.m}")
        print(f"colors = {ec.num_colors}")
        if args.out:
            _atomic_write(args.out + ".g6", encode_graph6(g) + "\n")
            _atomic_write(args.out + ".coloring", write_coloring(ec))
            print(f"wrote {args.out}.g6, {args.out}.coloring")
    else:
        if args.k is not None:
            raise ParameterError("ng-sharp takes n only")
        g = construct_ng_sharp_graph(args.n)
        co = complement(g)
        print(f"graph6 = {encode_graph6(g)}")
        print(f"complement_graph6 = {encode_graph6(co)}")
        print(f"n = {g.n}")
        print(f"m = {g.m}")
        value = rd_exact(g).value
        co_value = rd_exact(co).value
        print(f"value = {value}")
        print(f"complement_value = {co_value}")
        print(f"sum = {value + co_value}")
        if args.out:
            _atomic_write(args.out + ".g6", encode_graph6(g) + "\n")
            print(f"wrote {args.out}.g6")
    return 0


def _cmd_survey(args) -> int:
    if (args.n is None) == (args.infile is None):
        raise ParameterError("survey needs exactly one of --n or --in")
    if args.n is not None:
        graphs = enumerate_connected_graphs(args.n)
    else:
        graphs = _some_graphs(load_graph6_stream(_read_text(args.infile)))
    rules = None
    if args.rules is not None:
        tokens = [t.strip() for t in args.rules.split(",") if t.strip()]
        wanted = [r for t in tokens for r in (NG_RULE_ALIAS if t == "ng" else (t,))]
        rules = tuple(dict.fromkeys(wanted))
    config = SurveyConfig(
        rules=rules,
        budget_nodes=_resolve_budget(args).limit,
        jobs=args.jobs,
        seed=args.seed,
        sample_count=args.samples,
    )
    result = run_survey(graphs, config)
    text = survey_to_text(result)
    sys.stdout.write(text)
    if args.out:
        _atomic_write(args.out, text)
    return 1 if result.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdnum",
        description="rainbow disconnection numbers: bounds, exact values, "
        "colorings, certificates, and theorem surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bounds and exact value for one graph")
    p.add_argument("graph", help="graph6 or edge list; '-' for stdin")
    p.add_argument("--exact", action="store_true", help="run the exact search")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument(
        "--max-edges",
        type=int,
        default=DEFAULT_SEARCH_EDGE_CAP,
        help="largest edge count the exact search will accept",
    )
    p.add_argument(
        "--witness", metavar="PREFIX", default=None,
        help="run --exact, then write a coloring and its certificates to PREFIX.*",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("color", help="build a disconnection coloring")
    p.add_argument("graph", help="graph6 or edge list; '-' for stdin")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None, help="write the coloring here")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="recheck a coloring file")
    p.add_argument("coloring", help="coloring file; '-' for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="emit reference families")
    p.add_argument("family", choices=["extremal", "ng-sharp"])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--out", metavar="PREFIX", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("survey", help="run the theorem harness")
    p.add_argument("--n", type=int, default=None,
                   help=f"census order (1..{ENUMERATION_MAX_ORDER})")
    p.add_argument("--in", dest="infile", default=None, help="graph6 file")
    p.add_argument("--rules", default=None, help="comma list; 'ng' expands")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Undecided as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except RdError as exc:  # every other deliberate rejection
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
