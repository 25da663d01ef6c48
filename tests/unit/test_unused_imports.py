"""Unused-import gate: every name a ``src/repro`` module imports is used.

The scan parses every non-``__init__`` module under ``src/repro`` (package
``__init__`` files import in order to re-export) and fails on each
imported name the module never refers to: a name counts as used when it
occurs as a name anywhere in the module's syntax tree, except as a
statement of its own (``Optional`` alone on a line only hides an unused
import from this scan).  ``from __future__`` imports and names listed in
the module's ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def _imported_names(tree: ast.Module):
    """``(line, bound name)`` of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set:
    bare = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Name)
    }
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and id(node) not in bare
    }


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree) | _exported_names(tree)
        for line, name in _imported_names(tree):
            if name not in used:
                yield f"{path.relative_to(ROOT)}:{line} {name}"


def test_every_imported_name_is_used():
    unused = list(_unused_imports())
    assert not unused, (
        "imported names the module never uses; delete the imports:\n"
        + "\n".join(unused)
    )


def test_the_scan_exempts_future_imports_and_exported_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Optional, Tuple\n"
        "from .cells import CellRing as Ring\n"
        "from .errors import FifoError\n"
        "__all__ = ['FifoError']\n"
        "def f(ring: Ring) -> Optional[int]:\n"
        "    Tuple\n"
        "    return os.path.sep\n"
        "Tuple  # a bare name statement is not a use\n"
    )
    used = _used_names(tree) | _exported_names(tree)
    unused = [name for _, name in _imported_names(tree) if name not in used]
    assert unused == ["List", "Tuple"]
