"""No module under ``src/cpstar`` imports a name it never uses.

Each module is parsed with :mod:`ast`.  An imported name counts as used
when the module reads it anywhere, in code or inside a quoted annotation,
or lists it in ``__all__`` (the package's re-exports).
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cpstar"
MODULES = sorted(SOURCE.rglob("*.py"))


def _imported(tree):
    """``{bound name: line}`` of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _used(tree):
    """Every name the module reads, in quoted annotations too, and the
    entries of ``__all__``."""
    used = _names(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _names(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return used


def test_the_source_tree_is_found():
    assert SOURCE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        'from __future__ import annotations\n'
        'import os.path\n'
        'from math import gcd, lcm as least\n'
        'from typing import Sequence\n'
        '__all__ = ["gcd"]\n'
        'def f(x: "Sequence[int]") -> None:\n'
        '    return os.sep\n'
    )
    used = _used(tree)
    assert sorted(name for name in _imported(tree) if name not in used) == ["least"]
