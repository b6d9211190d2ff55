"""The one canonical JSON writer against the call it replaced.

``serialize.canonical_dumps`` encodes through one prebuilt
``json.JSONEncoder`` that does not track cycles.  The oracle is the call it
replaced, ``json.dumps(value, sort_keys=True, separators=(",", ":"))``,
which builds an encoder per call and tracks every list and dict: the bytes
must agree on every recorded CLI payload and on random JSON trees.  A value
that contains itself is refused by the encoder's depth guard.  Last, an
:mod:`ast` scan keeps ``serialize.py`` the only module under ``src/cpstar``
that names a JSON writer.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpstar.serialize import canonical_dumps

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "cpstar"
WRITERS = {"dumps", "dump", "JSONEncoder"}


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payloads():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [(case["name"], case["stdout"]) for case in cases if case["stdout"]]


@pytest.mark.parametrize("name, stdout", _payloads(), ids=[name for name, _ in _payloads()])
def test_every_golden_payload_is_written_as_the_oracle_writes_it(name, stdout):
    value = json.loads(stdout)
    assert canonical_dumps(value) == oracle(value)
    assert canonical_dumps(value) + "\n" == stdout


strings = st.text(st.characters(blacklist_categories=()), max_size=12)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | strings
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(strings, children, max_size=5),
    max_leaves=40,
)


@given(trees)
@example({"é": ["\x00\x1f\x7f", "\u2028", "\U0001d11e", "\ud800"], "b": [2**64, -(2**70), True, None], "a": {}})
def test_json_trees_are_written_as_the_oracle_writes_them(value):
    text = canonical_dumps(value)
    assert text == oracle(value)
    assert text.isascii()


@pytest.mark.parametrize("make", [list, dict], ids=["list", "dict"])
def test_a_value_that_contains_itself_is_refused_by_the_depth_guard(make):
    value = make()
    if make is list:
        value.append(value)
    else:
        value["self"] = value
    with pytest.raises(RecursionError):
        canonical_dumps(value)


def _writer_uses(tree):
    """``(line, text)`` of every ``json.dumps``, ``json.dump`` or
    ``json.JSONEncoder`` that the module names, through any alias of the
    module or a ``from json import``."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in WRITERS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((node.lineno, f"from json import {alias.name}") for alias in node.names if alias.name in WRITERS)
    return sorted(found)


MODULES = sorted(SOURCE.rglob("*.py"))


def test_the_source_tree_is_found():
    assert SOURCE / "serialize.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_only_serialize_names_a_json_writer(path):
    uses = _writer_uses(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "serialize.py" and path.parent == SOURCE:
        assert [text for _, text in uses] == ["json.JSONEncoder"]
    else:
        assert not uses, f"{path.name} writes JSON itself: " + ", ".join(f"{text} (line {line})" for line, text in uses)


def test_the_check_sees_a_second_writer():
    tree = ast.parse(
        "import json\n"
        "import json as j\n"
        "from json import dump, loads\n"
        "json.loads('1')\n"
        "j.dumps(1)\n"
        "class E(json.JSONEncoder): pass\n"
    )
    assert _writer_uses(tree) == [(3, "from json import dump"), (5, "j.dumps"), (6, "json.JSONEncoder")]
