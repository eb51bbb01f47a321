"""Checks on the package source itself."""

import ast
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

import cvcsp

PACKAGE = Path(cvcsp.__file__).parent
TESTS = Path(__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a correctness check written
    # as one would silently stop running
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _code_names(text: str) -> list:
    """The names a module uses in code: its NAME tokens, plus the strings of
    its `__all__`.  Comments and docstrings do not count."""
    lines = io.StringIO(text).readline
    names = [tok.string for tok in tokenize.generate_tokens(lines) if tok.type == tokenize.NAME]
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names += [element.value for element in node.value.elts]
    return names


def _overrides_outside_the_package(module, cls: ast.ClassDef, method: str) -> bool:
    # such a method is called by the base class's code, not by the package
    bases = getattr(module, cls.name).__mro__[1:]
    return any(method in vars(base) for base in bases if not base.__module__.startswith("cvcsp"))


def test_every_function_is_named_outside_its_definition():
    # a function that only tests call belongs in tests/oracles.py
    uses = Counter()
    trees = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        uses.update(_code_names(text))
        trees[path] = ast.parse(text)
    unused = []
    for path, tree in trees.items():
        module = importlib.import_module(f"cvcsp.{path.stem}")
        exempt = {
            id(method)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and _overrides_outside_the_package(module, cls, method.name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(node) in exempt:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if uses[node.name] == 1:  # the definition's own name
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_oracle_is_named_outside_its_definition():
    # an oracle no test calls checks nothing; so does an import it never uses.
    # Other test files reach an oracle as `oracles.NAME` or through
    # `from oracles import NAME`, so a library function of the same name
    # does not count as a use.
    path = TESTS / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    for other in sorted(TESTS.glob("*.py")):
        if other == path:
            continue
        for node in ast.walk(ast.parse(other.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                uses.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracles":
                uses[node.attr] += 1
    unused = [
        f"oracles.py:{node.lineno} {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not uses[node.name]
    ]
    unused += [
        f"oracles.py:{node.lineno} import {alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cvcsp"
        for alias in node.names
        if not uses[alias.asname or alias.name]
    ]
    assert unused == []


def test_the_version_has_one_home():
    # `solve` keys its cache on cvcsp.__version__, so pyproject.toml reads the
    # version from there: a second literal could be bumped alone
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]\n")[1].split("\n[")[0]
    assert 'dynamic = ["version"]' in project
    assert not any(line.replace(" ", "").startswith("version=") for line in project.splitlines())
    assert '\n[tool.setuptools.dynamic]\nversion = {attr = "cvcsp.__version__"}\n' in text
