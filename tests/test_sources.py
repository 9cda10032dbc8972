"""Checks on the package's sources, read as syntax trees."""

import ast
from pathlib import Path

import lrvlab

PACKAGE = Path(lrvlab.__file__).resolve().parent


def test_no_assert_statements():
    """python -O drops assert statements, so a runtime check written as one
    would vanish there; every check in the package raises instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
