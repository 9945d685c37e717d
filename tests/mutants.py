"""Seeded mutants of `src/rdnum`, each with the tests that must catch it.

A mutant names a file under `src/rdnum`, a text that occurs in it exactly
once, the text that replaces it, and the tests that must fail with the
replacement in place.  From the repository root,

    python tests/mutants.py [NAME ...]

first runs every named test on an unchanged copy of `src` and `tests`,
where each must pass; then, for each mutant (or each one named), applies
it in a fresh temporary copy and runs only its tests there.  It prints one
line per mutant and exits 1 if a named test passed under its mutant, or
was not run, and 2 if a named test fails without any mutant.
`tests/test_source.py` checks in tier-1 that each old text still occurs
exactly once, so the list fails loudly when the code under it moves.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant(
        "palette-skips-a-color",
        "src/rdnum/rd.py",
        "range(min(k, cmax + 1), 0, -1)",
        "range(min(k, cmax + 2), 0, -1)",
        ("tests/test_rd.py::test_search_matches_the_list_form_search",),
    ),
    Mutant(
        "hardest-pair-by-insertion-order",
        "src/rdnum/rd.py",
        "worst = min(fails, key=lambda pr: (-fails[pr], pr)) if fails else None",
        "worst = max(fails, key=fails.get) if fails else None",
        ("tests/test_rd.py::test_search_matches_the_list_form_search",),
    ),
    Mutant(
        "search-guard-checks-no-pair",
        "src/rdnum/rd.py",
        "both = [(u, v) for u, v in pairs if clashes >> u & clashes >> v & 1]",
        "both = []",
        ("tests/test_rd.py::test_search_guard_rejects_a_coloring_the_cuts_let_through",),
    ),
    Mutant(
        "census-form-ignores-the-mask",
        "src/rdnum/survey.py",
        "degrees = [deg[v] + (mask >> v & 1) for v in range(n - 1)]",
        "degrees = [deg[v] for v in range(n - 1)]",
        (
            "tests/test_canonical.py::test_labeling_counts",
            "tests/test_survey.py::TestSolveMemo::test_one_labeling_per_degree_form_per_survey",
        ),
    ),
    Mutant(
        "any-two-candidates-are-twins",
        "src/rdnum/survey.py",
        "if tried and any(adj[u] & ~bit == near & ~(1 << u) for u in tried):",
        "if tried:",
        (
            "tests/test_canonical.py::test_same_keys_on_the_census_and_its_relabelings",
            "tests/test_canonical.py::test_relabeling_invariance_on_large_symmetric_graphs",
        ),
    ),
    Mutant(
        "rank-digits-added",
        "src/rdnum/survey.py",
        "keys[a] -= weight[b]\n            keys[b] -= weight[a]",
        "keys[a] += weight[b]\n            keys[b] += weight[a]",
        (
            "tests/test_canonical.py::test_labeling_counts",
            "tests/test_canonical.py::test_same_keys_on_the_graphs_the_survey_labels",
        ),
    ),
    Mutant(
        "exact-search-reads-the-structural-verdict",
        "src/rdnum/coloring.py",
        "    if find_edge_coloring(g, delta, b) is not None:\n",
        "    if g.is_connected() and structural_class(g) is not None:\n"
        "        return structural_class(g).chromatic_index\n"
        "    if find_edge_coloring(g, delta, b) is not None:\n",
        (
            "tests/test_survey.py::TestCheckTheorems"
            "::test_class1_fast_paths_catches_a_wrong_structural_verdict",
        ),
    ),
    Mutant(
        "fail-first-ties-to-the-last-item",
        "src/rdnum/coloring.py",
        "if count < fewest:",
        "if count <= fewest:",
        (
            "tests/test_coloring.py::TestSharedBacktracker"
            "::test_edge_answers_match_the_fixed_order_kernel",
            "tests/test_coloring.py::test_order_eight_class_two_answers_match_the_fixed_order_kernel",
        ),
    ),
)


def _copy() -> tempfile.TemporaryDirectory:
    tmp = tempfile.TemporaryDirectory(prefix="rdnum-mutant-")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, Path(tmp.name) / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp.name)
    return tmp


def _caught(where: str, tests) -> set[str]:
    """The tests of `tests` that fail, or error, when run in `where`."""
    env = dict(os.environ, PYTHONPATH=str(Path(where) / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
    ).stdout
    ran = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M))
    if not re.search(r"\d+ (passed|failed)", out):
        ran = {"(nothing ran)"}
    return ran


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutants: {sorted(set(names) - {m.name for m in MUTANTS})}")
        return 2
    every = sorted({t for m in chosen for t in m.tests})
    with _copy() as where:
        broken = _caught(where, every)
    if broken:
        print(f"failing without a mutant: {sorted(broken)}")
        return 2
    survivors = 0
    for m in chosen:
        with _copy() as where:
            target = Path(where) / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"STALE {m.name}: the old text occurs {text.count(m.old)} times")
                survivors += 1
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            missed = set(m.tests) - _caught(where, m.tests)
        if missed:
            survivors += 1
            print(f"SURVIVED {m.name}: {', '.join(sorted(missed))} passed")
        else:
            print(f"caught {m.name}: {len(m.tests)} test(s) failed")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
