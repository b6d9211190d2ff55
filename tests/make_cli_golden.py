"""Write ``tests/data/cli_golden.json``: seeded CLI requests and their output.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/make_cli_golden.py          # rewrite the file
    PYTHONPATH=src python3 tests/make_cli_golden.py --check  # compare only

``--check`` rebuilds every case in memory and writes nothing.  It prints
the name of each case whose exit code or standard output differs from the
file, or that only one side has, and exits 1 if there is any; else 0.  A
change that should leave every output byte-identical can show that it does,
case by case.

Each case holds the arguments and standard input of one in-process
``cpstar.cli.main`` call, with the exit code and standard output it gave.
``test_cli.py`` replays every case and compares both byte for byte, so the
file pins the canonical output of the ``star``, ``subst``, ``quotient``,
``eval``, ``torus`` and ``disk`` subcommands and of every ``check`` suite.
The inputs are drawn from fixed seeds: elements on CP^1-CP^3 with entries
over small prime denominators (repeated indices included), missing middle
components, a zero component list, and a few malformed requests that exit 2.

``edge_cases`` appends, from a seed of its own so the earlier cases stay as
they are, torus and disk products and payloads that only the loaders'
leniency makes valid: parts written unreduced (``"2/4"``), padded
(``" 1/2 "``), as decimals (``"0.5"``), signed (``"+3"``, ``"-0"``) or with
underscores (``"1_0"``); entries with only ``re`` or only ``im``, unsorted
``I``/``J``, duplicate keys that add up or cancel; and parts that are
refused (``"1/0"``, a bare number, ``"1 /2"``).  Last, from a third seed,
come ``star``, ``disk`` and ``quotient`` requests over the budgets of
``cpstar.expr``, which exit 2 before any product or fold runs, and then a
torus product whose terms have phases equal modulo one, whose amplitudes
add up, and one whose repeated modes add up.  The last cases are refused
with exit 2 by a loader: a zero-valued Fourier mode of the wrong length,
an element of negative ``n`` under ``subst`` and ``star``, series of
negative ``n`` or ``degree`` under ``eval``, and rational functions, as an
``eval`` scalar and as a disk coefficient, with a denominator that splits
into factors ``1 - j nu`` and a numerator or denominator over
``cpstar.nupoly.MAX_LOADED_DEGREE``, or with a denominator that does not
split; the same at the budget runs when it splits.  Then a symbol on
CP^1000000 whose number of sorted index tuples is under
``multiindex.MAX_WIDTH_BITS`` bits runs, and one over it exits 2.  Last, an
``eval`` product and a disk product whose result passes
``MAX_LOADED_DEGREE`` exit 2 before they write it, and two ``eval``
requests spell the same zero multiple of ``nu * unit``, by the scalar 0 and
by the polynomial ``0 * nu``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from cpstar.checks import SUITES
from cpstar.cli import main, value_to_tagged
from cpstar.models.disk import DiskElement
from cpstar.multiindex import sorted_tuples
from cpstar.nupoly import MAX_LOADED_DEGREE
from cpstar.randgen import random_disk, random_fourier
from cpstar.scalars import GaussRational
from cpstar.star import StarElement
from cpstar.symbols import SymbolTensor

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
PRIMES = (1, 1, 2, 3, 5, 7)
SYMPLECTIC = [[0, 1], [-1, 0]]
# spellings of rational parts that the loaders accept, and their values
LENIENT_PARTS = {
    "2/4": Fraction(1, 2),
    " 1/2 ": Fraction(1, 2),
    "0.5": Fraction(1, 2),
    "+3": Fraction(3),
    "-0": Fraction(0),
    "1_0": Fraction(10),
    "-6/9": Fraction(-2, 3),
    "\t7\n": Fraction(7),
    "1.25": Fraction(5, 4),
    "3e-1": Fraction(3, 10),
    "-.5": Fraction(-1, 2),
    "5/1": Fraction(5),
}


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
    return out + edge_cases()


def _lenient_symbol(rng: random.Random, n: int, k: int, size: int) -> dict:
    """A symbol payload in lenient spellings: parts from ``LENIENT_PARTS``,
    some entries with one part only, letters in random order, and every
    third key listed twice, the second time either adding to the first or
    cancelling it."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    spellings = sorted(LENIENT_PARTS)
    entries = []
    for number, (left, right) in enumerate(rng.sample(slots, min(size, len(slots)))):
        entry = {"I": rng.sample(left, k), "J": rng.sample(right, k)}
        shape = rng.randrange(3)
        if shape != 1:
            entry["re"] = rng.choice(spellings)
        if shape != 2:
            entry["im"] = rng.choice(spellings)
        entries.append(entry)
        if number % 3 == 0:
            again = {"I": rng.sample(left, k), "J": rng.sample(right, k)}
            for part in ("re", "im"):
                if part in entry:
                    again[part] = rng.choice(spellings) if rng.random() < 0.5 else _negated(entry[part])
            entries.append(again)
    rng.shuffle(entries)
    return {"n": n, "k": k, "entries": entries}


def _negated(text: str) -> str:
    value = -LENIENT_PARTS[text]
    return f"{value.numerator}/{value.denominator}"


def edge_cases() -> list[dict]:
    """Torus and disk products and lenient or refused loader inputs."""
    rng = random.Random(2027)
    out = []

    def add(name, argv, stdin=""):
        out.append({"name": name, "argv": argv, "stdin": stdin})

    for number, K in enumerate((None, None, 1, 2, 3, 3, 4)):
        parameter = Fraction(1, K) if K else Fraction(rng.choice([1, 2, 3]), rng.choice([4, 5, 7]))
        pair = {
            side: value_to_tagged(random_fourier(rng, 2, SYMPLECTIC, parameter, modes=rng.randint(1, 4)))
            for side in ("left", "right")
        }
        argv = ["torus"] if K is None else ["torus", "--K", str(K)]
        add(f"torus-{number}-K{K}", argv, json.dumps(pair))
    wide = {side: value_to_tagged(random_fourier(rng, 2, [[0, 2], [-2, 0]], Fraction(1, 2))) for side in ("left", "right")}
    add("torus-wide-lattice", ["torus"], json.dumps(wide))
    add("torus-wide-lattice-K2", ["torus", "--K", "2"], json.dumps(wide))
    add("torus-parameter-mismatch", ["torus", "--K", "3"], json.dumps(wide))
    for number in range(5):
        pair = {side: value_to_tagged(random_disk(rng, max_index=3, terms=rng.randint(2, 4))) for side in ("left", "right")}
        add(f"disk-{number}", ["disk"], json.dumps(pair))
    add("disk-zero", ["disk"], json.dumps({"left": {"coeffs": []}, "right": value_to_tagged(DiskElement.basis(1, 2))}))
    add("disk-not-disk", ["disk"], json.dumps({"left": value_to_tagged(DiskElement.unit()), "right": {"re": "1"}}))

    for number, (n, k, l) in enumerate([(1, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1)]):
        pair = {"left": _lenient_symbol(rng, n, k, 6), "right": _lenient_symbol(rng, n, l, 6)}
        add(f"lenient-star-{number}-CP{n}-{k}x{l}", ["star"], json.dumps(pair))
    for number, (n, level) in enumerate([(1, 2), (2, 2)]):
        element = {
            "n": n,
            "level": level,
            "components": [_lenient_symbol(rng, n, r, 5) for r in range(level, -1, -1)],
        }
        payload = json.dumps({"type": "element", "value": element})
        add(f"lenient-subst-{number}", ["subst", "--alpha", " 2/6 "], payload)
        add(f"lenient-quotient-{number}", ["quotient", "--K", "2"], payload)
    session = {"n": 2, "bindings": {"A": _lenient_symbol(rng, 2, 1, 5), "B": _lenient_symbol(rng, 2, 2, 7)}}
    add("lenient-eval", ["eval", "A * B * A", "--input", "-"], json.dumps(session))
    matrix = [["2/4", {"re": "+3"}, {"im": "-0.5"}], [" 1_0 ", 4, {"re": "-0", "im": "6/9"}], ["0", "1e1", {}]]
    add("lenient-matrix", ["star"], json.dumps({"left": matrix, "right": matrix}))
    cancelling = {"n": 1, "k": 1, "entries": [
        {"I": [0], "J": [1], "re": "1/2", "im": "-1"},
        {"I": [0], "J": [1], "re": "-0.5", "im": "+1"},
        {"I": [1], "J": [1], "re": "0"},
    ]}
    add("lenient-cancel", ["quotient", "--K", "1"], json.dumps(cancelling))
    fourier = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": " 1/3 ", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "0.5", "phase": "2/4"}, {"amp": "+3", "phase": "1_0/20"}]},
        {"k": [0, -1], "terms": [{"amp": "-1/2"}, {"amp": "1/2", "phase": "-0"}]},
    ]}
    add("lenient-torus", ["torus", "--K", "3"], json.dumps({"left": fourier, "right": fourier}))
    disk = {"coeffs": [{"p": 1, "q": 0, "num": [{"re": "2/4"}, {"im": "+3"}], "den": [{"re": " 1 "}]}]}
    add("lenient-disk", ["disk"], json.dumps({"left": disk, "right": disk}))

    for number, bad in enumerate(["1/0", 1, "1 /2", "abc", "1/2/3", None, "", "1/-2"]):
        payload = {"n": 1, "k": 1, "entries": [{"I": [0], "J": [0], "re": "1"}, {"I": [1], "J": [0], "im": bad}]}
        add(f"refused-part-{number}", ["star"], json.dumps({"left": payload, "right": payload}))
    refused = [
        {"n": 1, "k": 1, "entries": [{"I": [0, 1], "J": [0], "re": "1"}]},
        {"n": 1, "k": 1, "entries": [{"I": [2], "J": [0], "re": "1"}]},
        {"n": 1, "k": 1, "entries": [{"I": [0], "J": [0.0], "re": "1"}]},
        {"n": 1, "k": 1, "entries": [{"J": [0], "re": "1"}]},
        {"n": 1, "k": -1, "entries": []},
    ]
    for number, payload in enumerate(refused):
        add(f"refused-symbol-{number}", ["subst", "--alpha", "1"], json.dumps(payload))

    rng = random.Random(2028)
    for n, a, b in [(3, 4, 3), (2, 7, 6)]:
        pair = {"left": value_to_tagged(_element(rng, n, a)), "right": value_to_tagged(_element(rng, n, b))}
        add(f"over-budget-star-CP{n}-{a}x{b}", ["star"], json.dumps(pair))
    for command in ("star", "disk"):
        disks = [value_to_tagged(DiskElement.basis(rng.randint(13, 20), rng.randint(0, 12))) for _ in range(2)]
        add(f"over-budget-{command}-disks", [command], json.dumps({"left": disks[0], "right": disks[1]}))
    for n, level, K in [(3, 2, 7), (2, 1, 13), (1, 3, 100)]:
        payload = json.dumps(value_to_tagged(_element(rng, n, level)))
        add(f"over-budget-quotient-CP{n}-K{K}", ["quotient", "--K", str(K)], payload)
    phases = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1", "phase": "1/3"}, {"amp": "2", "phase": "4/3"}]},
        {"k": [0, 1], "terms": [{"amp": "1/2", "phase": "-1/2"}, {"amp": "-1/2", "phase": "5/2"}]},
    ]}
    unit = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [{"k": [0, 0], "terms": [{"amp": "1"}]}]}
    add("torus-equal-phases-modulo-one", ["torus", "--K", "3"], json.dumps({"left": phases, "right": unit}))
    repeated = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1"}]},
        {"k": [0, 1], "terms": [{"amp": "5", "phase": "1/2"}]},
        {"k": [1, 0], "terms": [{"amp": "2"}]},
        {"k": [0, 1], "terms": [{"amp": "-5", "phase": "1/2"}]},
    ]}
    add("torus-repeated-modes-add-up", ["torus"], json.dumps({"left": repeated, "right": unit}))
    short = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [{"k": [1], "terms": []}]}
    add("torus-zero-mode-of-wrong-length", ["torus"], json.dumps({"left": short, "right": unit}))
    negative = {"type": "element", "value": {"n": -1, "level": 0, "components": [None]}}
    add("subst-negative-n", ["subst", "--alpha=1/3"], json.dumps(negative))
    add("star-negative-n", ["star"], json.dumps({"left": negative, "right": negative}))
    for field, series in (("n", {"n": -1, "degree": -4, "powers": {}}), ("degree", {"n": 1, "degree": -4, "powers": {}})):
        session = {"bindings": {"S": {"type": "series", "value": series}}}
        add(f"eval-series-negative-{field}", ["eval", "S", "--input", "-"], json.dumps(session))
    # loaded rational functions over a denominator that is not constant:
    # (1 - nu)^d splits and loads up to degree 64; 2 + nu^d does not split
    # and exits 2 at any degree.  The unsplit cases keep the degrees of a
    # budget of 32 that the Euclidean route they took once had, so that
    # their names and inputs stay as they were
    def over(num, den, split):
        if split:
            base = [1]
            for _ in range(den):
                base = [a - b for a, b in zip(base + [0], [0] + base)]
        else:
            base = [2] + [0] * (den - 1) + [1]
        return {"num": ["1"] * (num + 1), "den": [str(c) for c in base]}

    unit = value_to_tagged(DiskElement.unit())
    for split, limit in ((True, MAX_LOADED_DEGREE), (False, 32)):
        kind = "split" if split else "unsplit"
        for name, num, den in (("at-budget", 1, limit), ("den-over", 1, limit + 1), ("num-over", limit + 1, 1)):
            session = {"bindings": {"c": over(num, den, split)}}
            add(f"eval-scalar-{kind}-{name}", ["eval", "c", "--input", "-"], json.dumps(session))
            disk = {"coeffs": [{"p": 1, "q": 0, **over(num, den, split)}]}
            add(f"disk-coefficient-{kind}-{name}", ["disk"], json.dumps({"left": disk, "right": unit}))
    disk = {"coeffs": [{"p": 1, "q": 0, **over(1, 17, False)}]}
    add("disk-product-unsplit-over-budget", ["disk"], json.dumps({"left": disk, "right": disk}))
    # a symbol's cell keys count the sorted index tuples, W = C(n + k, k):
    # one entry on CP^1000000 has W of 227 bits at degree 13 and is refused
    # at degree 40, over 256 bits
    for k in (13, 40):
        letters = sorted(rng.randrange(10**6) for _ in range(2 * k))
        wide = {"n": 10**6, "k": k, "entries": [{"I": letters[::2], "J": letters[1::2], "re": "1/3"}]}
        add(f"symbol-on-cp1000000-degree-{k}", ["subst", "--alpha", "2"], json.dumps(wide))
    # 1 / (1 - nu)^64 loads; its square, of degree 0 over 128, is refused
    # when written, as it would be when read back
    session = {"bindings": {"c": over(0, MAX_LOADED_DEGREE, True)}}
    add("eval-scalar-product-over-budget", ["eval", "c*c", "--input", "-"], json.dumps(session))
    disk = {"coeffs": [{"p": 1, "q": 0, **over(0, MAX_LOADED_DEGREE, True)}]}
    add("disk-product-over-budget", ["disk"], json.dumps({"left": disk, "right": disk}))
    # a zero multiple keeps the level of the element, whether the zero is a
    # scalar or a polynomial in nu
    add("eval-zero-multiple", ["eval", "0 * (nu * unit)"])
    add("eval-zero-nu-multiple", ["eval", "(0 * nu) * (nu * unit)"])
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


def differing(golden: list[dict], recorded: list[dict]) -> list[str]:
    """Names of the cases whose exit code or stdout differ between the two
    lists, or that only one of them holds."""
    old = {case["name"]: (case["exit"], case["stdout"]) for case in recorded}
    new = {case["name"]: (case["exit"], case["stdout"]) for case in golden}
    return [name for name in dict.fromkeys([*new, *old]) if old.get(name) != new.get(name)]


def build() -> list[dict]:
    """Every case with the exit code and standard output it gives now."""
    golden = []
    for case in cases():
        code, stdout = run(case)
        golden.append({**case, "exit": code, "stdout": stdout})
    return golden


def make(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check tests/data/cli_golden.json.")
    parser.add_argument("--check", action="store_true", help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    golden = build()
    if args.check:
        names = differing(golden, json.loads(GOLDEN.read_text(encoding="utf-8")))
        for name in names:
            print(name)
        print(f"{len(names)} of {len(golden)} cases differ from {GOLDEN}")
        return 1 if names else 0
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(make())
