"""Checks on the package source itself."""

import ast
import re
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


def test_every_function_is_named_outside_its_definition():
    # a function that only tests call belongs in tests/oracles.py
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            def_line = text.splitlines()[node.lineno - 1]
            uses = sum(len(word.findall(other)) for other in sources.values())
            if uses == len(word.findall(def_line)):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
