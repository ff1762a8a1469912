"""Checks on the package source itself."""

import ast
from pathlib import Path

import smallball

SOURCES = sorted(Path(smallball.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariant checks must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert not found, f"assert statements in src: {found}"
