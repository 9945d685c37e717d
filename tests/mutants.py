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
        "star-of-u-never-tried",
        "src/rdnum/rd.py",
        "        if not clashes >> u & 1:\n            yield u, v, 1 << u, stars[u]\n        elif",
        "        if",
        (
            "tests/test_bipartitions.py::test_certificates_are_the_first_rainbow_side_in_order",
            "tests/test_rd.py::test_cached_stars_match_the_old_attempts",
            "tests/test_rd.py::test_find_rainbow_cut_matches_the_old_search_pair_by_pair",
        ),
    ),
    Mutant(
        "clash-bit-on-the-wrong-endpoint",
        "src/rdnum/coloring.py",
        "            if used[b] & bit:\n                clash |= 1 << b\n",
        "            if used[b] & bit:\n                clash |= 1 << a\n",
        (
            "tests/test_rd.py::test_colorings_of_one_graph_keep_their_own_stars",
            "tests/test_rd.py::test_cached_stars_match_the_old_attempts",
        ),
    ),
    Mutant(
        "a-third-walker-caller",
        "src/rdnum/rd.py",
        "    _, _, side, crossing = next(_rainbow_cuts(ec, [(u, v)], as_budget(budget)))\n",
        "    side = crossing = None\n"
        "    for side, cross in _bipartitions(g, 1 << u, 1 << v, ec.colors, g.m, as_budget(budget)):\n"
        "        crossing = tuple((g.edges[i], ec.colors[i]) for i in mask_vertices(cross))\n"
        "        break\n",
        (
            "tests/test_source.py::test_one_walker_and_one_cut_lister_enumerate_sides",
            "tests/test_rd.py::test_find_rainbow_cut_matches_the_old_search_pair_by_pair",
        ),
    ),
    Mutant(
        "leaf-crossing-from-one-side-mask",
        "src/rdnum/rd.py",
        "yield side, ein & eout",
        "yield side, eout",
        (
            "tests/test_bipartitions.py::test_cut_systems_match_a_loop_over_all_sides",
            "tests/test_bipartitions.py::test_walker_matches_the_back_edge_walker",
            "tests/test_bipartitions.py::test_certificates_are_the_first_rainbow_side_in_order",
        ),
    ),
    Mutant(
        "last-batched-charge-dropped",
        "src/rdnum/rd.py",
        "                    stack.append((d + 1, side, ein, eout | edges, u, k))\n"
        "    if charged:\n        budget.spend(charged)\n",
        "                    stack.append((d + 1, side, ein, eout | edges, u, k))\n",
        (
            "tests/test_bipartitions.py::test_walker_matches_the_back_edge_walker",
            "tests/test_rd.py::test_verification_spends_the_pinned_total",
        ),
    ),
    Mutant(
        "fixed-vertex-takes-its-other-side",
        "src/rdnum/rd.py",
        "if free or outside >> x & 1:",
        "if free or fixed >> x & 1:",
        (
            "tests/test_bipartitions.py::test_cut_systems_match_a_loop_over_all_sides",
            "tests/test_bipartitions.py::test_walker_matches_the_back_edge_walker",
            "tests/test_bipartitions.py::test_certificates_are_the_first_rainbow_side_in_order",
        ),
    ),
    Mutant(
        "star-break-on-any-regular-level",
        "src/rdnum/rd.py",
        "level.bit_count() == n",
        "level.bit_count() >= n",
        ("tests/test_rd.py::test_no_star_break_on_a_regular_level_with_a_cut_past_the_stars",),
    ),
    Mutant(
        "blocks-split-at-bridges-only",
        "src/rdnum/graphs.py",
        "if low[x] >= disc[p]:",
        "if low[x] > disc[p]:",
        (
            "tests/test_graphs.py::test_blocks_match_the_edge_stack_walk",
            "tests/test_rd.py::test_degree_floor_matches_the_per_vertex_loop",
        ),
    ),
    Mutant(
        "neighbour-colors-read-at-its-index-in-g",
        "src/rdnum/rd.py",
        "free = ~at[x - (x > u)] & ~1",
        "free = ~at[min(x, h.n - 1)] & ~1",
        ("tests/test_rd.py::test_degree_floor_matches_the_per_vertex_loop",),
    ),
    Mutant(
        "a-tied-candidate-ends-the-extension-loop",
        "src/rdnum/rd.py",
        "if t_u < chi:",
        "if t_u <= chi:",
        (
            "tests/test_rd.py::test_degree_floor_matches_the_per_vertex_loop",
            "tests/test_rd.py::test_degree_floor_skips_classifications",
        ),
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
    Mutant(
        "edge-list-needs-a-two-field-header",
        "src/rdnum/graphs.py",
        "if lines and lines[0][1][:1].isdigit():",
        "if lines and len(lines[0][1].split()) == 2:",
        ("tests/test_cli.py::test_one_graph_input_errors_are_the_readers",),
    ),
    Mutant(
        "blank-row-read-as-a-row",
        "src/rdnum/graphs.py",
        "        if line:\n",
        "        if line or out:\n",
        ("tests/test_graphs.py::TestEdgeList::test_blank_rows_are_skipped_and_counted",),
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
    """The tests of `tests` that fail, or error, when run in `where`; a
    parametrized test counts as failing when any of its cases fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(where) / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
    ).stdout
    ran = set(re.findall(r"^(?:FAILED|ERROR) ([^\s\[]+)", out, re.M))
    if not re.search(r"\d+ (passed|failed|errors?)\b", out):
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
