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


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``_name`` function or class in
    ``sources`` (module name -> source) that no module reads outside the
    helper's own body.  A read is an ``ast.Name`` load, an attribute or an
    import alias of that name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    helpers = [(module, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    unused = []
    for module, helper in helpers:
        own = {id(node) for node in ast.walk(helper)}
        name = helper.name
        if not any(id(node) not in own and (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name)
                for tree in trees.values() for node in ast.walk(tree)):
            unused.append(f"{module}.{name}")
    return unused


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_helpers(sources) == []


def test_unused_private_helpers_finds_an_orphan():
    sources = {
        "a": ("def _orphan(n):\n"
              "    return _orphan(n - 1) if n else 0\n"   # a call of itself is no use
              "def _called():\n"
              "    return 1\n"
              "class _Imported:\n"
              "    pass\n"
              "def _read_as_attribute():\n"
              "    pass\n"
              "x = _called()\n"),
        "b": ("from .a import _Imported\n"
              "from . import a\n"
              "y = a._read_as_attribute\n"),
    }
    assert unused_private_helpers(sources) == ["a._orphan"]
