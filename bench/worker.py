"""One benchmark process: build a workload's inputs, time its operations,
check the outputs, and print one JSON line.

run.py starts this file as a fresh interpreter for each set-up probe and
each measured or traced run; it passes the monotonic clock reading taken
just before the start, so set-up time counts from interpreter start.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

# The program's functions are looked up on the package at each call, so the
# tracer's replacements are the ones called.
import rdnum  # noqa: E402
import rdnum.cli  # noqa: E402
from rdnum import EdgeColoring, Graph, RdError  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Gauge  # noqa: E402

PETERSEN_G6 = "IheA@GUAo"


def generalized_petersen(n: int, k: int) -> tuple[int, tuple]:
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)]
    return 2 * n, tuple(sorted((min(e), max(e)) for e in edges))


def cycle(n: int) -> tuple[int, tuple]:
    return n, tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def grid(rows: int, cols: int) -> tuple[int, tuple]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, tuple(sorted(edges))


def census(orders) -> list[tuple[int, tuple]]:
    """The program's census, checked against the literature's counts."""
    out, counts = [], {}
    for n in orders:
        graphs = rdnum.enumerate_connected_graphs(n)
        counts[n] = len(graphs)
        out += [(g.n, g.edges) for g in graphs]
    why = checks.check_census(counts)
    if why:
        raise SystemExit(f"census: {why}")
    return out


# ---------------------------------------------------------------------------
# workloads: each builds its inputs once (set-up) and then runs rounds.  A
# round rebuilds every Graph from its edges before the clock starts, so no
# round profits from properties cached on the graphs by an earlier one.  A
# workload yields its operations in units: the operations of a unit run one
# after another, and the units run in a new seeded order each round.


class Workload:
    def counts(self, outputs) -> dict[str, int]:
        """Exact counts read from the outputs, for the determinism guard."""
        return {}


class Search7(Workload):
    """Every connected graph of order 2..7, the Petersen graph and GP(n,2)
    for n = 6..9, each solved by search alone (no bound rules)."""

    # literature values: Petersen 4; GP(n,2) is cubic and 3-edge-colorable
    # for n = 6..9 (Castagna and Prins 1972), so its value is 3
    KNOWN = {PETERSEN_G6: 4, **{f"GP({n},2)": 3 for n in range(6, 10)}}

    def __init__(self, seed: int):
        # the census is complete, so the seed has nothing to sample here
        pet = rdnum.parse_graph6(PETERSEN_G6)
        self.inputs = [(f"census{i}", n, e) for i, (n, e) in enumerate(census(range(2, 8)))]
        self.inputs.append((PETERSEN_G6, pet.n, pet.edges))
        self.inputs += [(f"GP({n},2)", *generalized_petersen(n, 2)) for n in range(6, 10)]

    def units(self):
        for label, n, edges in self.inputs:
            g = Graph(n, edges)
            yield [(label, lambda g=g: rdnum.rd_exact(g, rules=(), max_search_edges=max(21, g.m)))]

    @staticmethod
    def output(result):
        colors = result.coloring.colors if result.coloring is not None else None
        return (result.value, colors, result.search_nodes)

    def check(self, outputs) -> list[str]:
        bad = []
        for (label, n, edges), out in zip(self.inputs, outputs):
            if out is None:
                continue  # the operation raised and counts as failed
            value, colors, _ = out
            why = checks.check_value(n, edges, value, colors)
            if why is None and label in self.KNOWN and value != self.KNOWN[label]:
                why = f"value {value}, the literature gives {self.KNOWN[label]}"
            if why is None:
                g = Graph(n, edges)
                full = rdnum.rd_exact(g, max_search_edges=max(21, g.m)).value
                if full != value:
                    why = f"value {value} by search, {full} with every bound rule"
            if why:
                bad.append(f"{label}: {why}")
        return bad

    def counts(self, outputs) -> dict[str, int]:
        return {"rd.search_nodes": sum(o[2] for o in outputs if o is not None)}


class Certify(Workload):
    """Colorings built and verified, and given colorings verified."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        graphs = census([7])
        self.build = [(f"census{i}", n, e) for i, (n, e) in enumerate(graphs)]
        self.build += [(f"C{n}", *cycle(n)) for n in range(16, 21)]
        self.given = []
        for i, (n, edges) in enumerate(graphs):
            # below the largest local connectivity no coloring is valid; above
            # min(max degree + 1, n - 1) the palette exceeds the value
            low = checks.lambda_plus(n, edges) - 1
            high = min(max(d.bit_count() for d in checks.adjacency(n, edges)) + 1, n - 1) + 1
            for tag, k in (("below", low), ("above", high)):
                if k >= 1:
                    colors = tuple(rng.randint(1, k) for _ in edges)
                    self.given.append((f"census{i}/{tag}{k}", n, edges, colors))
        for rows, cols in ((4, 4), (3, 6), (4, 5)):
            n, edges = grid(rows, cols)
            # rows one color, columns the other: two vertices of each grid
            # are joined by at least 3 edge-disjoint paths, so no 2-coloring
            # is valid and the verdict is "not valid"
            colors = tuple(1 if b == a + 1 else 2 for a, b in edges)
            self.given.append((f"grid{rows}x{cols}", n, edges, colors))

    def units(self):
        for label, n, edges in self.build:
            g = Graph(n, edges)
            built = {}

            def build(g=g, built=built):
                built["ec"] = rdnum.construct_rd_coloring(g)[0]
                return built["ec"]

            def verify(built=built):
                if "ec" not in built:
                    raise RdError("no coloring was built to verify")
                return rdnum.verify_rd_coloring(built["ec"])

            yield [(label + "/construct", build), (label + "/verify", verify)]
        for label, n, edges, colors in self.given:
            ec = EdgeColoring(Graph(n, edges), colors)
            yield [(label + "/verify", lambda ec=ec: rdnum.verify_rd_coloring(ec))]

    @staticmethod
    def output(result):
        if isinstance(result, EdgeColoring):
            return result.colors
        return (result.ok, result.failing_pair, result.certificates)

    def check(self, outputs) -> list[str]:
        bad = []
        it = iter(outputs)
        for label, n, edges in self.build:
            colors, verdict = next(it), next(it)
            if colors is None or verdict is None:
                continue  # the operation raised and counts as failed
            ok, failing, certificates = verdict
            why = checks.check_verdict(n, edges, colors, ok, certificates, failing)
            if why is None and not ok:
                why = "a constructed coloring was found not valid"
            if why:
                bad.append(f"{label}: {why}")
        for label, n, edges, colors in self.given:
            verdict = next(it)
            if verdict is None:
                continue
            ok, failing, certificates = verdict
            why = checks.check_verdict(n, edges, colors, ok, certificates, failing)
            if why is None and "/below" in label and ok:
                why = "a palette below the connectivity was found valid"
            if why:
                bad.append(f"{label}: {why}")
        return bad



class Survey7(Workload):
    """`rdnum survey --n 7` with every harness rule, jobs=1: one operation,
    census enumeration included, in a fresh process per round."""

    def __init__(self, seed: int, jobs: int = 1):
        self.argv = ["survey", "--n", "7", "--seed", str(seed), "--jobs", str(jobs)]

    def units(self):
        def survey():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = rdnum.cli.main(self.argv)
            if code != 0:
                raise RdError(f"rdnum survey exited with {code}")
            return out.getvalue()

        yield [("survey7", survey)]

    @staticmethod
    def output(result):
        return result

    def check(self, outputs) -> list[str]:
        if outputs[0] is None:
            return []
        why = checks.check_survey_report(outputs[0])
        return [f"survey7: {why}"] if why else []



WORKLOADS = {"survey7": Survey7, "search7": Search7, "certify": Certify}


# ---------------------------------------------------------------------------


def run_round(workload, tracer: Tracer | None, order: random.Random | None = None,
              gauge: Gauge | None = None):
    """Run every operation once, the units shuffled by `order`, the gauge's
    reference work between units; returns (wall, op times, outputs, errors),
    times and outputs in the workload's own order of operations, the wall
    without the gauge's time."""
    units = list(workload.units())
    first_op, n = [], 0
    for unit in units:
        first_op.append(n)
        n += len(unit)
    schedule = list(range(len(units)))
    if order is not None:
        order.shuffle(schedule)
    times, outputs, errors = [0.0] * n, [None] * n, []
    if tracer is not None:
        tracer.install()
    if gauge is not None:
        gauge.sample()  # so that every round has samples
    spent = gauge.spent if gauge is not None else 0.0
    try:
        t_round = time.perf_counter()
        for u in schedule:
            for i, (label, op) in enumerate(units[u], first_op[u]):
                # the gauge samples inside survey7's operation (gauge_inside)
                spent_before = gauge.spent if gauge is not None else 0.0
                t0 = time.perf_counter()
                try:
                    result = op()
                except RdError as exc:  # Undecided, SizeError and the rest
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                else:
                    outputs[i] = workload.output(result)
                times[i] = time.perf_counter() - t0
                if gauge is not None:
                    times[i] -= gauge.spent - spent_before
            if gauge is not None:
                gauge.maybe()
        wall = time.perf_counter() - t_round
        if gauge is not None:
            wall -= gauge.spent - spent
            gauge.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, times, outputs, errors


@contextlib.contextmanager
def gauge_inside(gauge: Gauge, module, name: str):
    """Let the gauge sample after each call of module.name.  survey7's one
    operation runs for half a minute, too long to gauge the machine's speed
    only before and after it; its calls of survey.check_theorems, one per
    graph, are where the gauge samples instead.  Without such a function,
    the gauge samples only before and after the operation."""
    fn = getattr(module, name, None)
    if fn is None:
        yield
        return

    def sampled(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            gauge.maybe()

    setattr(module, name, sampled)
    try:
        yield
    finally:
        setattr(module, name, fn)


def distinct_classes(graphs) -> int:
    """Isomorphism classes among (n, edges) graphs, by the program's
    canonical form (called untraced, after the run)."""
    from rdnum.survey import canonical_form

    return len({canonical_form(Graph(n, e)) for n, e in set(graphs)})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["probe", "measure", "trace", "jobs2"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", default=None, help="write the trace's spans here")
    args = ap.parse_args()

    if args.mode == "jobs2":
        report = Survey7(args.seed, jobs=2)
        _, _, outputs, errors = run_round(report, None)
        print(json.dumps({"report": outputs[0], "errors": errors}))
        return 0

    tracing = args.mode == "trace"
    setup_tracer = Tracer() if tracing else None
    if setup_tracer:
        setup_tracer.install()
    try:
        workload = WORKLOADS[args.workload](args.seed)
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
    setup_s = time.monotonic() - args.started
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # survey7 is one operation per process (run.py spawns more); the other
    # workloads repeat whole rounds, at least two and until --seconds of timed
    # work, alternating untraced and traced rounds when tracing.  Each round
    # runs the units in a new order drawn from the seed, so that every
    # operation's times are spread over the whole run rather than taken in
    # one stretch of it.  The gauge (speed.py) times its reference work
    # between units, and inside survey7's one long operation when it is not
    # traced.  Only the first round's outputs are kept; later rounds must
    # repeat them.
    one_round = args.workload == "survey7"
    order = random.Random(f"order/{args.seed}")
    gauge = Gauge()
    scales, raw_walls = [], []
    first, repeats = None, True
    walls, traced_walls, tracers, raised = [], [], [], []
    op_totals = None  # per operation, its summed untraced time

    def more() -> bool:
        done = walls + traced_walls
        if not done or one_round:
            return not done
        return len(done) < 2 or sum(done) < args.seconds

    while more():
        tracer = Tracer() if tracing and (one_round or len(walls) > len(traced_walls)) else None
        inside = contextlib.nullcontext()
        if one_round and tracer is None:
            inside = gauge_inside(gauge, rdnum.survey, "check_theorems")
        mark = len(gauge.samples)
        with inside:
            wall, times, outputs, errors = run_round(workload, tracer, order, gauge)
        raised += errors
        if first is None:
            first = outputs
        elif outputs != first:
            repeats = False
        del outputs  # hold at most two rounds' outputs: the first and the latest
        if tracer is None:
            # scaled by the gauge's samples from this round: the machine's
            # speed moves between rounds too
            scale = gauge.scale(mark)
            scales.append(scale)
            raw_walls.append(wall)
            walls.append(wall * scale)
            times = [t * scale for t in times]
            op_totals = times if op_totals is None else list(map(sum, zip(op_totals, times)))
        else:
            traced_walls.append(wall)
            tracers.append(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = len(walls) + len(traced_walls)
    wrong_ops = workload.check(first)
    wrong = list(wrong_ops)
    if not repeats:
        wrong.append("a round's outputs differ from the first round's")
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "op_totals": op_totals or [],
        "raw_walls": raw_walls,
        "scales": scales,
        "attempted": rounds * len(first),
        "failed": len(raised) + len(wrong_ops) * rounds,
        "errors": raised[:20],
        "wrong": wrong[:20],
        "peak_rss_mb": peak_rss_mb,
        "counts": workload.counts(first),
    }
    if args.workload == "survey7":
        result["report"] = first[0]
    if tracing:
        per_round = [t.counts() for t in tracers]
        if any(c != per_round[0] for c in per_round):
            result["wrong"].append(f"exact counts differ between rounds: {per_round}")
        layers = [t.layer_metrics(distinct_classes(t.aux_graphs)) for t in tracers]
        setup_layers = setup_tracer.layer_metrics(0)
        metrics = {}
        for name in layers[0]:
            mean = sum(m[name] for m in layers) / len(layers)
            metrics[name] = mean if name.endswith("_ratio") else setup_layers[name] + mean
        result["layers"] = metrics
        setup_counts = setup_tracer.counts()
        result["counts"].update({k: setup_counts[k] + v for k, v in per_round[0].items()})
        if args.spans:
            with open(args.spans, "w") as out:
                setup_tracer.write(out, "setup")
                for i, t in enumerate(tracers):
                    t.write(out, f"round{i}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
