"""Checks on the package source itself."""

import ast
from pathlib import Path

import cvcsp

PACKAGE = Path(cvcsp.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a correctness check written
    # as one would silently stop running
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
