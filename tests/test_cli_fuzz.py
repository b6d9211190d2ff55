"""Fuzzing ``cli.main`` in one process, over the one parser it builds.

Random argument lists over every subcommand, with junk flags and values,
random expression strings, and standard input that is either random JSON
or a recorded ``cli_golden.json`` request with one node replaced.  Every
call must exit 0 or 2 (1 only from ``check``) without a traceback, and
every exit-0 payload must load back through ``tagged_to_value`` and dump
to the same JSON.  Argument errors end in argparse's ``SystemExit(2)``; a
run of them must leave the shared parser as it was, which a replay of
recorded requests shows.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpstar import cli
from cpstar.checks import SUITES
from cpstar.cli import main, tagged_to_value, value_to_tagged

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
# recorded inputs of each subcommand, small ones only
INPUTS = {}
for _case in GOLDEN:
    if _case["stdin"] and len(_case["stdin"]) < 2500:
        INPUTS.setdefault(_case["argv"][0], []).append(_case["stdin"])


def call(argv, stdin=""):
    """Exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# -- strategies ------------------------------------------------------------

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from([1.5, -0.0, 10**30]),
    st.sampled_from(["1/2", "0", "-3", "1/0", "x", "", " 2/4 ", "0.5", "[]"]),
)
random_json = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["type", "value", "left", "right", "n", "k", "K", "entries", "I", "J", "re", "im",
                         "components", "level", "coeffs", "num", "den", "p", "q", "dim", "Lambda", "lambda",
                         "terms", "amp", "phase", "bindings", "seed", "powers", "degree", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


@st.composite
def mutated_inputs(draw, command):
    """A recorded input of the subcommand, mostly with one node replaced
    by random JSON."""
    text = draw(st.sampled_from(INPUTS[command]))
    if not draw(st.integers(0, 3)):
        return text
    data = json.loads(text)
    path = draw(st.sampled_from(list(_nodes(data))))
    replacement = draw(random_json)
    if not path:
        return json.dumps(replacement)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = replacement
    return json.dumps(data)


@st.composite
def stdin_texts(draw, command):
    """Mostly a recorded input of the subcommand, else random JSON or junk."""
    pick = draw(st.integers(0, 5))
    if command in INPUTS and pick < 4:
        return draw(mutated_inputs(command))
    if pick == 4:
        return json.dumps(draw(random_json))
    return draw(st.sampled_from(["", "{", "[1,", "null", '{"left": 1}', "\x00"]))


operands = st.sampled_from(["A", "B", "S", "M", "unit", "nu", "2/3", "(A * B)", "C"])
expressions = st.one_of(
    st.recursive(
        operands,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" * ", " . ", "*"]), inner).map("".join),
            st.tuples(inner, st.sampled_from(["^2", "^3", "^0", "^-1"])).map(lambda t: f"({t[0]}){t[1]}"),
            st.tuples(st.sampled_from(["subst(2/7)", "subst(-1/3)", "quot(1)", "quot(2)", "subst(1/0)"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
        ),
        max_leaves=4,
    ),
    st.lists(
        st.sampled_from(["A", "B", "*", ".", "^", "2", "(", ")", "subst(", "quot(", "1/0", "-", "+", " ", "x", "_"]),
        max_size=8,
    ).map("".join),
)

small_ints = st.sampled_from(["1", "2", "3", "1", "2", "1", "0", "-1", "x", "1.5", ""])
junk_flags = st.sampled_from(["--bogus", "-x", "--K=abc", "--alpha=1/0", "--alpha", "--K", "--n", "--seed", "--suite",
                              "--instances", "--input", "--output", "extra", "--K=0", "--alpha=x"])


@st.composite
def requests(draw):
    command = draw(st.sampled_from(["star", "eval", "quotient", "subst", "torus", "disk", "check", "bogus"]))
    argv = [command]
    if command == "eval":
        argv.append(draw(expressions))
        if draw(st.booleans()):
            argv += ["--input", "-"]
    elif command == "quotient":
        if draw(st.integers(0, 5)):
            argv += ["--K", draw(small_ints)]
    elif command == "subst":
        if draw(st.integers(0, 5)):
            argv.append("--alpha=" + draw(st.sampled_from(["1/3", "2/7", "-3/5", " 1/2 ", "0.5", "1/0", "x", "1_0"])))
    elif command == "torus":
        if draw(st.booleans()):
            argv += ["--K", draw(small_ints)]
    elif command == "check":
        if draw(st.integers(0, 5)):
            argv += ["--suite", draw(st.sampled_from(SUITES + ("bogus",)))]
        argv += ["--seed", draw(st.sampled_from(["0", "5", "-2", "x"]))]
        for flag in ("--n", "--K", "--instances"):
            if not draw(st.integers(0, 3)):
                # up to 2: a suite at n = K = 3 can take seconds
                argv += [flag, draw(st.sampled_from(["1", "2", "1", "0", "-1", "x", ""]))]
    if not draw(st.integers(0, 4)):
        argv.append(draw(junk_flags))
    return argv, draw(stdin_texts(command))


# -- tests -----------------------------------------------------------------


def _round_trips(tagged) -> bool:
    return value_to_tagged(tagged_to_value(tagged)) == tagged


@settings(max_examples=300, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_every_request_exits_by_the_contract(request):
    argv, stdin = request
    code, out, err = call(argv, stdin)
    assert code in (0, 2) or (code == 1 and argv[0] == "check"), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.strip(), argv
    if code != 0 or argv[0] == "check":
        return
    payload = json.loads(out)
    assert cli.canonical_dumps(payload) + "\n" == out
    if argv[0] == "eval":
        payload = payload["result"]
    elif argv[0] == "torus":
        payload = payload["product"]
    assert _round_trips(payload), argv


def test_argument_errors_leave_the_shared_parser_as_it_was():
    replay = [case for case in GOLDEN if len(case["stdin"]) < 4000][::9]
    assert {case["argv"][0] for case in replay} >= {"star", "subst", "quotient", "eval", "check"}
    refused = [
        [],
        ["bogus"],
        ["star", "--bogus"],
        ["quotient"],
        ["quotient", "--K", "0"],
        ["quotient", "--K", "x", "--input", "-"],
        ["subst", "--alpha", "1/0"],
        ["subst", "--alpha=x", "--output", "-"],
        ["torus", "--K", "-1"],
        ["check", "--suite", "bogus"],
        ["check", "--suite", "assoc", "--n", "0"],
        ["check", "--suite", "assoc", "--instances", "x"],
        ["eval"],
        ["eval", "A", "B"],
    ]
    for argv in refused * 3:
        code, out, err = call(argv)
        assert code == 2 and out == "" and "usage: cpstar" in err, argv
    parser = cli._shared_parser()
    for case in replay:
        assert call(case["argv"], case["stdin"])[:2] == (case["exit"], case["stdout"]), case["name"]
    assert cli._shared_parser() is parser


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counting():
        built.append(True)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    for argv in (["eval", "unit"], ["eval", "nu * unit"], ["bogus"], ["check", "--suite", "starexp"]):
        call(argv)
    assert built == [True]
