"""Every cache under ``src/cpstar`` is bounded.

Each module is parsed with :mod:`ast`.  Every use of ``lru_cache`` must
call it with a ``maxsize`` that is a positive int, written as an int
constant or an expression of int constants (``1 << 12``); a bare
``@lru_cache``, ``lru_cache()`` and ``maxsize=None`` are refused.  Nothing
may use ``functools.cache``, which never evicts.  A long-lived process
that evaluates many products then keeps a bounded number of table entries
and weights, whatever it is given.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cpstar"
MODULES = sorted(SOURCE.rglob("*.py"))
CONSTANT_NODES = (ast.Expression, ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def _named(node, name):
    """Whether ``node`` reads ``name`` or ``functools.<name>``."""
    if isinstance(node, ast.Name):
        return node.id == name
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def _finite_maxsize(call):
    """The ``maxsize`` of an ``lru_cache`` call, if it is a positive int
    computed from int constants alone, else None."""
    given = [keyword.value for keyword in call.keywords if keyword.arg == "maxsize"] + call.args[:1]
    if len(given) != 1:
        return None
    expression = ast.Expression(given[0])
    if not all(isinstance(node, CONSTANT_NODES) for node in ast.walk(expression)):
        return None
    value = eval(compile(expression, "<maxsize>", "eval"))
    return value if type(value) is int and value > 0 else None


def _unbounded(tree):
    """``[(line, what)]`` of every cache in the module without a finite bound."""
    out = []
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, "imports functools.cache") for alias in node.names if alias.name == "cache"]
        elif _named(node, "cache") and not isinstance(node, ast.Name):
            out.append((node.lineno, "uses functools.cache"))
        elif isinstance(node, ast.Call) and _named(node.func, "lru_cache"):
            if _finite_maxsize(node) is None:
                out.append((node.lineno, "lru_cache without a finite int maxsize"))
        elif _named(node, "lru_cache") and id(node) not in calls:
            out.append((node.lineno, "bare lru_cache"))
    return sorted(out)


def test_the_source_tree_is_found():
    assert SOURCE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_every_cache_is_bounded(path):
    unbounded = _unbounded(ast.parse(path.read_text(), filename=str(path)))
    assert not unbounded, f"{path.name}: " + ", ".join(f"{what} (line {line})" for line, what in unbounded)


def test_the_check_sees_an_unbounded_cache():
    tree = ast.parse(
        'import functools\n'
        'from functools import cache, lru_cache\n'
        '@lru_cache(maxsize=1 << 12)\n'
        'def a(): pass\n'
        '@functools.lru_cache(64)\n'
        'def b(): pass\n'
        '@lru_cache(maxsize=None)\n'
        'def c(): pass\n'
        '@lru_cache\n'
        'def d(): pass\n'
        '@functools.lru_cache()\n'
        'def e(): pass\n'
        '@functools.cache\n'
        'def f(): pass\n'
        'g = lru_cache(maxsize=SIZE)(len)\n'
        'h = lru_cache(maxsize=0)(len)\n'
        'store.cache = {}\n'
    )
    assert [line for line, _ in _unbounded(tree)] == [2, 7, 9, 11, 13, 15, 16]
