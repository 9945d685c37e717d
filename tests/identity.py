"""Run the command-line matrix in this tree and in another one, and compare.

From the repository root,

    python tests/identity.py PARENT_DIR

runs each command below with `python -m rdnum.cli`, once from PARENT_DIR
(a checkout of another revision, say the parent commit made with
`git archive`) and once from this tree, each with its own `src` on the
path and the same input files, those of this tree.  It prints one line per
command, `same` or the first line of standard output that differs, or the
two exit codes when they differ, and exits 1 if any command differs.  It is
not part of the test suite: it takes about half a minute on two cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def matrix() -> list[list[str]]:
    """The commands each change re-runs to show that no output moved."""
    runs = [
        ["survey", "--n", str(n), "--jobs", str(jobs)]
        for n in range(2, 8)
        for jobs in (1, 2)
    ]
    runs += [
        ["survey", "--n", "6", "--budget", str(budget), "--jobs", str(jobs)]
        for budget in (30, 300, 3000)
        for jobs in (1, 2)
    ]
    # graphs above the census order: Petersen, one at the search cap and
    # one past it
    beyond = str(ROOT / "tests" / "data" / "beyond_census.g6")
    runs += [
        ["survey", "--in", beyond, *budget, "--jobs", str(jobs)]
        for budget in ([], ["--budget", "30"])
        for jobs in (1, 2)
    ]
    runs.append(["analyze", "IheA@GUAo", "--exact"])
    runs.append(["verify", str(ROOT / "tests" / "data" / "c10.coloring")])
    return runs


def run(tree: Path, argv: list[str]) -> tuple[int, list[str]]:
    """The exit code and the stdout lines of `rdnum argv` run from `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "rdnum.cli", *argv],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout.splitlines()


def first_difference(old: tuple[int, list[str]], new: tuple[int, list[str]]) -> str | None:
    """Where two runs part: the first differing stdout line, else the exit
    codes; None when they agree."""
    (old_code, old_lines), (new_code, new_lines) = old, new
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else "(no line)"
        b = new_lines[i] if i < len(new_lines) else "(no line)"
        if a != b:
            return f"line {i + 1}: {a!r} became {b!r}"
    if old_code != new_code:
        return f"exit code {old_code} became {new_code}"
    return None


def main(args: list[str]) -> int:
    if len(args) != 1 or not (Path(args[0]) / "src" / "rdnum").is_dir():
        print("usage: python tests/identity.py PARENT_DIR (a tree holding src/rdnum)")
        return 2
    parent = Path(args[0]).resolve()
    differ = 0
    for argv in matrix():
        why = first_difference(run(parent, argv), run(ROOT, argv))
        command = " ".join(["rdnum", *argv]).replace(f"{ROOT}{os.sep}", "")
        if why is None:
            print(f"same {command}")
        else:
            differ += 1
            print(f"DIFFERS {command}: {why}")
    print(f"{len(matrix()) - differ} of {len(matrix())} commands give the same output")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
