"""Checks over the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rdnum

from mutants import MUTANTS, ROOT


def _is_assert(node) -> bool:
    """An assert statement, or a raise of AssertionError (a guard that
    reads as an assert but is no RdError)."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    """Result checks raise RdError: an assert vanishes under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_assert(node)
    ]
    assert found == []


def _budget_position(fn) -> tuple[int, str] | None:
    """The position and name of a function's budget parameter: one named
    `budget` or annotated with `Budget`."""
    for i, arg in enumerate(fn.args.posonlyargs + fn.args.args):
        notes = ast.walk(arg.annotation) if arg.annotation else ()
        if arg.arg == "budget" or any(
            isinstance(x, ast.Name) and x.id == "Budget" for x in notes
        ):
            return i, arg.arg
    return None


def _passes(call: ast.Call, position: int, name: str) -> bool:
    if len(call.args) > position or any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return any(isinstance(a, ast.Starred) for a in call.args)


def test_budgets_are_threaded():
    """A call that takes a budget inside a function that holds one passes
    it on, so the caller's Budget is the only work limit below it; and no
    code but the budget module makes a fresh default Budget()."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
    }
    defs = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    ]
    budgeted = {fn.name: pos for fn in defs if (pos := _budget_position(fn))}
    assert {"rd_exact", "verify_rd_coloring"} <= set(budgeted)
    found = []
    for fn in defs:
        if fn.name not in budgeted:
            continue
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            callee = budgeted.get(call.func.id)
            if callee is not None and not _passes(call, *callee):
                found.append(f"{fn.name}:{call.lineno} {call.func.id}")
    for name, tree in trees.items():
        for call in ast.walk(tree):
            if (
                name != "budget.py"
                and isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "Budget"
                and not (call.args or call.keywords)
            ):
                found.append(f"{name}:{call.lineno} Budget()")
    assert found == []


def test_only_the_budget_module_moves_spent():
    """Nodes are charged through Budget.spend, or replayed at their stored
    cost by budget._kept: no other module assigns to a `.spent`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        if path.name != "budget.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for x in ast.walk(target)
        if isinstance(x, ast.Attribute) and x.attr == "spent"
    ]
    assert found == []


def test_one_walker_and_one_cut_lister_enumerate_sides():
    """Sides are enumerated on two routes only: `_cut_sides` lists the cuts
    of the coloring search, and `_rainbow_cuts` finds the certificates of
    `find_rainbow_cut`, `verify_rd_coloring` and the search's check."""
    callers = [
        fn.name
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_bipartitions"
    ]
    assert sorted(callers) == ["_cut_sides", "_rainbow_cuts"]


def test_one_labeling_route():
    """Isomorphism classes are found on one route: `_label` alone calls
    `canonical_form`, after its degree-form lookup, for the census and the
    survey alike."""
    callers = [
        fn.name
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "canonical_form"
    ]
    assert callers == ["_label"]


def test_one_line_splitter_and_a_cli_of_public_names():
    """Text becomes numbered lines on one route: `graphs._input_lines`
    alone calls `splitlines`, for every reader.  The command line routes
    input without regular expressions and imports only public names."""
    callers = [
        f"{path.name}:{fn.name}"
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "splitlines"
    ]
    assert callers == ["graphs.py:_input_lines"]
    cli = ast.parse((Path(rdnum.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(cli)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "re" not in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_each_seeded_mutant_applies_once():
    """Every mutant of `tests/mutants.py` changes a text that occurs exactly
    once in its file, and names tests that exist, so the list fails here,
    not in its runner, when the code under it moves."""
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1 and m.old != m.new and m.tests, m.name
        for test in m.tests:
            path, *names = test.split("::")
            assert f"def {names[-1]}(" in (ROOT / path).read_text(encoding="utf-8"), test


def test_importing_the_cli_loads_no_multiprocessing():
    """Only a survey with more than one job loads multiprocessing."""
    src = str(Path(rdnum.__file__).parent.parent)
    code = "import sys, rdnum.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"
