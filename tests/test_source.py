"""Checks over the package source itself."""

import ast
from pathlib import Path

import rdnum


def test_no_assert_statements():
    """Result checks raise RdError: an assert vanishes under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(rdnum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
