"""Static checks on the package source, by the standard library's ast."""

import ast
import pathlib

import milnorsig

PACKAGE = pathlib.Path(milnorsig.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import of ``source`` and never read in
    it.  ``from __future__`` imports and statements marked
    ``# noqa: F401`` are exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_top_level_import_is_read():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_imports_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .arith import poly_gcd  # noqa: F401\n"
              "from .poly import (Poly,\n"
              "                   product)\n"
              "x = os.path.join\n"
              "y: Poly\n")
    assert unused_imports(source) == ["product"]
