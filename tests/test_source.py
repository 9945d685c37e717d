"""Checks over the package source itself."""

import ast
from pathlib import Path

import rdnum


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
