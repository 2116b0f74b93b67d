"""Every name a module of the package imports is used by that module.

No linter ships with the project, so this stdlib-only check stands in for
one: it parses each module with ``ast`` and fails on an imported name that
is never referenced. Names listed in a module's ``__all__`` count as used
(the package's ``__init__`` re-exports), and ``from __future__`` imports
are skipped.
"""
import ast
from pathlib import Path

import pytest

import wfsmr

MODULES = sorted(Path(wfsmr.__file__).parent.glob("*.py"))


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
