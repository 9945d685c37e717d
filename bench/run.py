"""Run one rdnum benchmark workload and print its metrics.

    python3 bench/run.py --workload survey7 --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ../src relative to this
file.  Each measurement runs in a fresh interpreter (bench/worker.py), one
at a time, with jobs=1.  Timed figures are scaled to a reference speed of
the machine, gauged during each round (bench/speed.py).  With --trace 0 the
last line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The line before it is the result
record: the exact counts of the determinism guard, the core count, the
Python version, the git revision and a digest of the package sources.  The
exit code is 0 only when every step ran; a wrong output still exits 0 and
reports "correct": false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("survey7", "search7", "certify")
# set-up is measured in this many extra fresh interpreters besides the
# measured ones: survey7's set-up is an import, short and cheap enough for
# many; the others enumerate the census, which costs seconds each time
PROBES = {"survey7": 8, "search7": 1, "certify": 1}
DEADLINE_S = 170


class BenchError(Exception):
    pass


class Spawner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, mode: str, seconds: float = 0.0, spans: Path | None = None) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            f"--workload={self.workload}",
            f"--seed={self.seed}",
            f"--mode={mode}",
            f"--seconds={seconds!r}",
        ]
        if spans is not None:
            cmd.append(f"--spans={spans}")
        started = time.monotonic()
        left = self.deadline - started
        if left <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                cmd + [f"--started={started!r}"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} run of {self.workload} passed the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} run of {self.workload} exited {proc.returncode}:\n{proc.stderr}")
        try:
            return json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{mode} run of {self.workload} printed no result") from exc


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: list[float]) -> float:
    """The 98th percentile; with too few samples for ten to lie beyond it,
    the largest sample (survey7 has one operation per run)."""
    ordered = sorted(values)
    if len(ordered) - math.ceil(0.98 * len(ordered)) >= 10:
        return percentile(ordered, 0.98)
    return ordered[-1]


def end_to_end(spawn: Spawner, seconds: float) -> tuple[dict, list[dict], dict]:
    probes = [spawn("probe")["setup_s"] for _ in range(PROBES[spawn.workload])]
    runs, raw_walls = [], []
    while not raw_walls or sum(raw_walls) < seconds:
        runs.append(spawn("measure", seconds - sum(raw_walls)))
        raw_walls += runs[-1]["raw_walls"]
    # Times are scaled to the reference speed (speed.py): each round's by the
    # gauge's samples in that round, each set-up by the mean scale of the
    # interpreter's rounds, the probes' (made just before the first measured
    # interpreter) by that of the first.  wall_s is the median round, the
    # percentiles are over each operation's mean time over the rounds: the
    # rounds run the operations in shuffled orders, so both average over the
    # whole run, not one stretch of it.
    walls = [w for r in runs for w in r["walls"]]
    scale = [statistics.mean(r["scales"]) for r in runs]
    setups = [t * scale[0] for t in probes] + [r["setup_s"] * k for r, k in zip(runs, scale)]
    ops = [sum(ts) / len(walls) for ts in zip(*(r["op_totals"] for r in runs))]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_p98_ms": (1e3 * tail_percentile(ops), "ms"),
    }
    raw = {
        "scales": [k for r in runs for k in r["scales"]],
        "wall_s": statistics.median(w for r in runs for w in r["raw_walls"]),
        "setup_s": statistics.median(probes + [r["setup_s"] for r in runs]),
    }
    return metrics, runs, raw


def traced(spawn: Spawner, seconds: float) -> tuple[dict, list[dict], dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{spawn.workload}.tsv"  # the latest traced run only
    if spawn.workload == "survey7":
        runs = [spawn("measure"), spawn("trace", spans=spans)]
    else:
        runs = [spawn("trace", seconds, spans=spans)]
    # unscaled: survey7's traced interpreter has no gauge samples
    walls = [w for r in runs for w in r["raw_walls"]]
    traced_walls = [w for r in runs for w in r["traced_walls"]]
    layers = runs[-1]["layers"]
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, runs, {"scales": [k for r in runs for k in r["scales"]]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def guard(record: dict) -> list[str]:
    """The exact counts must match every earlier record of the same
    workload, seed and package sources; the new record is then stored."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "records.jsonl"
    problems = []
    if path.exists():
        for line in path.read_text().splitlines():
            old = json.loads(line)
            if (old["workload"], old["seed"], old["source_sha256"]) != (
                record["workload"], record["seed"], record["source_sha256"]
            ):
                continue
            for name, value in record["counts"].items():
                if name in old["counts"] and old["counts"][name] != value:
                    problems.append(f"{name} is {value}, an earlier run counted {old['counts'][name]}")
    with path.open("a") as out:
        out.write(json.dumps(record) + "\n")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rdnum" / "__init__.py").is_file():
        print(f"error: no rdnum package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spawn = Spawner(args.workload, args.seed)
    try:
        metrics, runs, raw = (traced if args.trace else end_to_end)(spawn, args.seconds)
        wrong = [w for r in runs for w in r["wrong"]]
        if args.workload == "survey7":
            # the report must not depend on the worker count; not timed
            other = spawn("jobs2")
            wrong += other["errors"]
            if other["report"] != runs[0].get("report"):
                wrong.append("the survey report with jobs=2 differs from jobs=1")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counts = {}
    for r in runs:
        counts.update(r["counts"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "counts": counts,
        "unscaled": raw,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }
    wrong += guard(record)
    for problem in wrong:
        print(f"wrong: {problem}", file=sys.stderr)
    for r in runs:
        for err in r["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
