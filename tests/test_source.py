"""Checks on the package source itself."""

import ast
from pathlib import Path

import psl2kit

SOURCE_DIR = Path(psl2kit.__file__).parent


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants raise named exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
