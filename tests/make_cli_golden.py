"""Write ``tests/data/cli_golden.json``: seeded CLI requests and their output.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/make_cli_golden.py

Each case holds the arguments and standard input of one in-process
``cpstar.cli.main`` call, with the exit code and standard output it gave.
``test_cli.py`` replays every case and compares both byte for byte, so the
file pins the canonical output of the ``star``, ``subst``, ``quotient`` and
``eval`` subcommands and of every ``check`` suite.  The inputs are drawn
from fixed seeds: elements on CP^1-CP^3 with entries over small prime
denominators (repeated indices included), missing middle components, a zero
component list, and a few malformed requests that exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from cpstar.checks import SUITES
from cpstar.cli import main, value_to_tagged
from cpstar.multiindex import sorted_tuples
from cpstar.scalars import GaussRational
from cpstar.star import StarElement
from cpstar.symbols import SymbolTensor

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
PRIMES = (1, 1, 2, 3, 5, 7)


def _symbol(rng: random.Random, n: int, k: int, size: int) -> SymbolTensor:
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    entries = {}
    for key in rng.sample(slots, min(size, len(slots))):
        entries[key] = GaussRational(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(PRIMES)),
            Fraction(rng.randint(-2, 2), rng.choice(PRIMES)),
        )
    return SymbolTensor(n, k, entries)


def _element(rng: random.Random, n: int, level: int, size: int = 4) -> StarElement:
    skip = rng.randrange(level + 1) if level > 1 and rng.random() < 0.3 else None
    components = {r: _symbol(rng, n, r, size) for r in range(level + 1) if r != skip}
    return StarElement(n, level, components)


def cases() -> list[dict]:
    """The seeded requests, without their outputs."""
    rng = random.Random(2026)
    out = []

    def add(name, argv, stdin=""):
        out.append({"name": name, "argv": argv, "stdin": stdin})

    shapes = [(1, 1, 1), (1, 2, 2), (1, 3, 2), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 1), (1, 0, 3)]
    for number, (n, a, b) in enumerate(shapes * 2):
        pair = {"left": value_to_tagged(_element(rng, n, a)), "right": value_to_tagged(_element(rng, n, b))}
        add(f"star-{number}-CP{n}-{a}x{b}", ["star"], json.dumps(pair))
    matrices = {"left": value_to_tagged(_symbol(rng, 2, 1, 5)), "right": value_to_tagged(_symbol(rng, 2, 1, 5))}
    add("star-symbols", ["star"], json.dumps(matrices))

    alphas = ["1/3", "2/7", "-3/5", "1", "1/2", "5"]
    for number, (n, level) in enumerate([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 4)]):
        element = _element(rng, n, level)
        payload = json.dumps(value_to_tagged(element))
        for alpha in alphas[number % 3 :: 3]:
            add(f"subst-{number}-CP{n}-L{level}-{alpha}", ["subst", f"--alpha={alpha}"], payload)
        for K in (1, 2, 3):
            add(f"quotient-{number}-CP{n}-L{level}-K{K}", ["quotient", "--K", str(K)], payload)
    add("quotient-zero", ["quotient", "--K", "2"], json.dumps(value_to_tagged(StarElement(2, 2))))
    add("subst-zero", ["subst", "--alpha", "1/3"], json.dumps(value_to_tagged(StarElement(1, 1))))

    session = {
        "n": 2,
        "seed": 7,
        "bindings": {
            "A": value_to_tagged(_element(rng, 2, 1)),
            "B": value_to_tagged(_element(rng, 2, 2)),
            "S": value_to_tagged(_symbol(rng, 2, 2, 6)),
            "M": value_to_tagged(_symbol(rng, 2, 1, 4)),
        },
    }
    for number, expression in enumerate([
        "A * B",
        "B * A",
        "A . B",
        "S * A",
        "A^3",
        "2/3 * B",
        "nu * A * S",
        "subst(2/7)(A * B)",
        "subst(-1/3)(S * S)",
        "quot(2)(A * B)",
        "quot(1)(B)",
        "(A * B) * A",
        "A * (B * A)",
        "M . M",
        "unit * S",
    ]):
        add(f"eval-{number}", ["eval", expression, "--input", "-"], json.dumps(session))
    add("eval-bare", ["eval", "nu * unit"])
    add("eval-unbound", ["eval", "A * C", "--input", "-"], json.dumps(session))
    add("star-malformed", ["star"], json.dumps({"left": 1}))

    for suite in SUITES:
        for seed in (0, 5):
            add(f"check-{suite}-{seed}", ["check", "--suite", suite, "--seed", str(seed)])
    return out


def run(case: dict) -> tuple[int, str]:
    """Exit code and standard output of one request."""
    stdout = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(case["stdin"])
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
    finally:
        sys.stdin = saved
    return code, stdout.getvalue()


if __name__ == "__main__":
    golden = []
    for case in cases():
        code, stdout = run(case)
        golden.append({**case, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
