"""Every name ``src/cpstar`` defines is needed by the package, the benchmark
or the documented API.

Each module is parsed with :mod:`ast`.  The guard looks at every
module-level function and class, and every method of a module-level class
but the dunders, and flags a definition that passes none of three tests:

- its name is read, as a ``Name`` or an ``Attribute``, somewhere under
  ``src/cpstar`` outside a definition already flagged and outside its own
  body (imports and ``__all__`` hold no such reads);
- ``bench/`` pins it: a span, rollup or creation-counter target of
  ``bench/tracer.py``, or an attribute of a ``cpstar`` module that a
  ``bench/*.py`` file reads;
- it is named in backticks in its own module's row of the README
  "Package layout" table.

Flagging repeats until nothing more drops out, so a helper whose only
reader is a flagged name is flagged too.  A name that only tests need
belongs in ``tests/``, next to the test or oracle that uses it.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cpstar"
BENCH = ROOT / "bench"
README = ROOT / "README.md"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path):
    parts = ("cpstar",) + path.relative_to(SOURCE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reads(node, skip=()):
    """Names read as a ``Name`` or an ``Attribute`` under ``node``, not
    under any node in ``skip``."""
    out, stack = set(), [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        stack.extend(child for child in ast.iter_child_nodes(sub) if child not in skip)
    return out


def _surface(module, tree):
    """``{(module, qualname): (reads, class or None)}`` of every definition
    the guard looks at, dunder methods included, and the module's reads
    outside them."""
    defs = {}
    tops = [node for node in tree.body if isinstance(node, DEFINITIONS)]
    for top in tops:
        methods = []
        if isinstance(top, ast.ClassDef):
            methods = [node for node in top.body if isinstance(node, DEFINITIONS[:2])]
            for method in methods:
                qualname = f"{top.name}.{method.name}"
                defs[module, qualname] = (_reads(method) - {method.name}, top.name)
        defs[module, top.name] = (_reads(top, skip=methods) - {top.name}, None)
    return defs, _reads(tree, skip=tops)


def unneeded(sources, rows, pins):
    """Sorted ``module:qualname`` of every definition in ``sources``
    (``{module: source text}``) that no kept code reads, no pin in ``pins``
    (``{(module, dotted path)}``) keeps and its module's row in ``rows``
    (``{module: row text}``) does not name in backticks."""
    defs, always = {}, set()
    for module, text in sources.items():
        found, reads = _surface(module, ast.parse(text))
        defs.update(found)
        always |= reads
    documented = {
        module: set(re.findall(r"`([A-Za-z_][\w.]*)`", row)) for module, row in rows.items()
    }

    def kept(key):
        module, qualname = key
        name = qualname.rsplit(".", 1)[-1]
        return (
            (name.startswith("__") and name.endswith("__"))
            or key in pins
            or bool({qualname, name} & documented.get(module, set()))
        )

    flagged = set()
    while True:
        live = {
            key: reads
            for key, (reads, owner) in defs.items()
            if key not in flagged and (owner is None or (key[0], owner) not in flagged)
        }
        read = always.union(*live.values())
        more = {key for key in live if not kept(key) and key[1].rsplit(".", 1)[-1] not in read}
        if not more:
            return sorted(f"{module}:{qualname}" for module, qualname in flagged)
        flagged |= more


def _with_prefixes(module, path):
    parts = path.split(".")
    return {(module, ".".join(parts[:end])) for end in range(1, len(parts) + 1)}


def bench_pins(tracer, bench_sources, modules):
    """``{(module, dotted path)}`` that the benchmark names: every target of
    ``tracer`` (a loaded ``bench/tracer.py``) and every attribute chain of a
    module in ``modules`` that one of ``bench_sources`` reads."""
    pins = set()
    for _, module, path in tracer.SPAN_TARGETS:
        pins |= _with_prefixes(module, path)
    for targets in tracer.ROLLUP_TARGETS.values():
        for module, path in targets:
            pins |= _with_prefixes(module, path)
    for module, cls in tracer.CREATION_COUNTERS.values():
        pins.add((module, cls))
    for text in bench_sources:
        tree = ast.parse(text)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    if bound in modules:
                        aliases[alias.asname or bound] = bound
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                for alias in node.names:
                    child = f"{node.module}.{alias.name}"
                    if child in modules:
                        aliases[alias.asname or alias.name] = child
                    else:
                        pins.add((node.module, alias.name))
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in aliases:
                module = aliases[node.id]
                while chain and f"{module}.{chain[0]}" in modules:
                    module = f"{module}.{chain.pop(0)}"
                if chain:
                    pins |= _with_prefixes(module, ".".join(chain))
    return pins


def readme_rows(text):
    """``{module: row text}`` of the README "Package layout" table."""
    table = text.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1): match.group(2)
        for match in re.finditer(r"^\|\s*`(cpstar[\w.]*)`\s*\|(.*)\|\s*$", table, re.MULTILINE)
    }


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cpstar_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tree():
    sources = {_module_name(path): path.read_text() for path in sorted(SOURCE.rglob("*.py"))}
    rows = readme_rows(README.read_text())
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    return sources, rows, bench_pins(_load_tracer(), bench, set(sources))


def test_bench_pins_are_read_from_bench(tree):
    _, _, pins = tree
    assert {(module, path) for _, module, path in _load_tracer().SPAN_TARGETS} <= pins
    # ``bench/workloads.py`` calls these through a module and a from-import
    assert {
        ("cpstar.models.disk", "neg_nu_pochhammer"),
        ("cpstar.models.disk", "disk_basis_coefficient"),
        ("cpstar.multiindex", "sorted_tuples"),
    } <= pins


def test_every_definition_is_needed(tree):
    assert unneeded(*tree) == []


@pytest.mark.parametrize("module", sorted(map(_module_name, SOURCE.rglob("*.py"))))
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in getattr(package, "__all__", ()) if not hasattr(package, name)] == []


PLANTED = '''
def traced():
    return helper()

def helper():
    return 1

class Planted:
    def used(self):
        return 0

    def documented(self):
        return 1

    def benched(self):
        return 2

    def unread(self):
        return self.unread()

    def expand(self):
        return 3

value = Planted().used()
'''


def test_the_guard_sees_planted_names():
    class Tracer:
        SPAN_TARGETS = [("planted", "cpstar.planted", "traced")]
        ROLLUP_TARGETS = {}
        CREATION_COUNTERS = {}

    sources = {"cpstar": "", "cpstar.planted": PLANTED, "cpstar.other": "def expand():\n    return 0\n"}
    rows = {"cpstar.planted": " `Planted.documented` ", "cpstar.other": " `expand` "}
    bench = ["import cpstar.other\nfrom cpstar import planted\ncpstar.other.expand(planted.Planted.benched)\n"]
    pins = bench_pins(Tracer, bench, set(sources))
    assert pins == {("cpstar.other", "expand")} | {
        ("cpstar.planted", name) for name in ("traced", "Planted", "Planted.benched")
    }
    # a method no one reads, and one named only in another module's row
    assert unneeded(sources, rows, pins) == ["cpstar.planted:Planted.expand", "cpstar.planted:Planted.unread"]
    # unpinned, the tracer target goes, and with it the helper only it reads
    assert unneeded(sources, rows, set()) == [
        "cpstar.planted:Planted.benched",
        "cpstar.planted:Planted.expand",
        "cpstar.planted:Planted.unread",
        "cpstar.planted:helper",
        "cpstar.planted:traced",
    ]
