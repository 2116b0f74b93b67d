"""Every name a module of the package imports is used by that module, and
every function, class and method it defines is used somewhere.

No linter ships with the project, so these stdlib-only checks stand in for
one. They parse the sources with ``ast``:

* an imported name must be referenced in the module that imports it. Names
  listed in a module's ``__all__`` count as used (the package's
  ``__init__`` re-exports), and ``from __future__`` imports are skipped;
* a top-level function or class, or a method of a top-level class that is
  not a dunder, must be referenced somewhere in ``src/``, ``tests/`` or
  ``perfbench/``: as a name, an attribute or a string constant, outside
  its own definition. ``__all__`` lists and imports do not count, so a
  name only the package's ``__init__`` re-exports is an orphan.
"""
import ast
from pathlib import Path

import pytest

import wfsmr

MODULES = sorted(Path(wfsmr.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "perfbench")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names referenced anywhere, unquoted annotations included, or exported
    by ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional as Opt, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: Opt[int]) -> None:\n"
        "    return sys.argv\n"
    )
    assert set(imported_names(tree)) - referenced_names(tree) == {"os"}


def definitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(qualified name, name, line) of every top-level function and class
    and every non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((f"{node.name}.{item.name}", item.name, item.lineno))
    return found


def mentioned_names(tree: ast.Module) -> set[str]:
    """Names, attribute names and string constants in the module, except
    those inside a definition of the same name and those in ``__all__``."""
    used = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_no_orphan_definitions():
    paths = set(MODULES).union(*((ROOT / d).rglob("*.py") for d in SOURCE_DIRS))
    used = set().union(*(mentioned_names(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))
    orphans = [
        f"{path.name}:{line} {qualified}"
        for path in MODULES
        for qualified, name, line in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    ]
    assert not orphans, f"defined but never used: {orphans}"


def test_the_check_sees_an_orphan():
    tree = ast.parse(
        "__all__ = ['lonely']\n"
        "def lonely():\n"
        "    return lonely()\n"
        "def helper():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def opened(self):\n"
        "        return self.shut()\n"
        "    def shut(self):\n"
        "        return helper()\n"
        "HANDLERS = {'box': Box}\n"
    )
    used = mentioned_names(tree)
    assert [q for q, name, _ in definitions(tree) if name not in used] == ["lonely", "Box.opened"]
