"""The four seeded workloads of the benchmark.

Each workload builds, from one ``random.Random``, a list of rounds.  A round
is a fixed mix of ops; every round of a workload has the same labels in the
same order and differs only in the random inputs.  An op is a callable that
returns True when its exact check passes and False when it finds a wrong
result; an exception escaping it counts as a failed op.

The ops call into ``cpstar`` through module attributes (``star.star_elements``
and so on), so that the tracer's wrappers see every call.  An op's own
verification that calls into ``cpstar`` (serialising a result to compare it)
runs inside ``checking()``; the traced run rebinds it to pause the tracer, so
that the spans hold the program's work only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from cpstar import checks, cli, nupoly, quotient, randgen, serialize, star, symbols
from cpstar.models import disk, torus
from cpstar.multiindex import sorted_tuples


class Op(NamedTuple):
    label: str
    run: Callable[[], bool]


# Context of an op's verification; the traced run rebinds it to pause the tracer.
checking = contextlib.nullcontext


# -- inputs of a stated size -------------------------------------------------
#
# ``randgen.random_symbol`` fills each entry slot with probability
# ``density``, so the number of entries, and with it the cost of an op, varies
# from draw to draw.  The workloads instead fill a fixed share of the slots,
# chosen at random, with ``randgen.random_scalar`` values, so that every input
# of one shape has one size and the seed changes only where the entries sit
# and what they are.


def sized_symbol(rng: random.Random, n: int, k: int, density: float = 0.5):
    """A symbol tensor with nonzero entries in ``round(density * slots)`` random slots (at least 1)."""
    indices = sorted_tuples(n, k)
    slots = [(left, right) for left in indices for right in indices]
    entries = {}
    for slot in rng.sample(slots, max(1, round(len(slots) * density))):
        value = randgen.random_scalar(rng)
        while not value:
            value = randgen.random_scalar(rng)
        entries[slot] = value
    return symbols.SymbolTensor(n, k, entries)


def sized_element(rng: random.Random, n: int, level: int):
    """A level-``level`` element whose every component is a ``sized_symbol``."""
    return star.StarElement(n, level, {r: sized_symbol(rng, n, r) for r in range(level + 1)})


DISK_KEYS = [(p, q) for p in range(4) for q in range(4)]
DISK_VALUES = [-3, -2, -1, 1, 2, 3]


def sized_disk(rng: random.Random):
    """A disk element like ``randgen.random_disk(max_index=3)``, with three
    distinct terms whose indices sum to 9 and nonzero coefficients in -3..3.

    The cost of a disk product grows with the indices of its terms; 9 is the
    expected sum of three terms with indices drawn from 0..3.
    """
    while True:
        keys = rng.sample(DISK_KEYS, 3)
        if sum(p + q for p, q in keys) == 9:
            break
    return disk.DiskElement({
        key: nupoly.NuRationalFunction.constant(Fraction(rng.choice(DISK_VALUES))) for key in keys
    })


# -- cpn_products --------------------------------------------------------

# (n, level a, level b, level c) of the associativity triples in a round, with
# copies.  The sizes form four cost groups: small triples (a fifth of the
# ops), one shape that holds the middle half and the median, larger CP^1/CP^2
# triples, and CP^3 triples (a fifth) that hold the 90th percentile.  A
# percentile in the middle of a group of one shape varies less from seed to
# seed than one on the edge between two groups.
PRODUCT_SHAPES = [
    ((1, 1, 2, 1), 1), ((2, 1, 1, 1), 3), ((1, 2, 2, 1), 3), ((1, 2, 1, 2), 2),
    ((1, 2, 2, 2), 22),
    ((1, 2, 2, 3), 1), ((1, 3, 3, 1), 1), ((1, 3, 2, 2), 1), ((2, 2, 1, 1), 1), ((2, 1, 2, 1), 1),
    ((3, 1, 1, 2), 4), ((3, 2, 1, 1), 5),
]
PRODUCT_ROUNDS = 8


def _associativity(a, b, c) -> bool:
    left = star.star_elements(star.star_elements(a, b), c)
    return left == star.star_elements(a, star.star_elements(b, c))


def setup_products(rng: random.Random, workdir: Path) -> list[list[Op]]:
    rounds = []
    for _ in range(PRODUCT_ROUNDS):
        ops = []
        for (n, *levels), copies in PRODUCT_SHAPES:
            for _ in range(copies):
                a, b, c = (sized_element(rng, n, level) for level in levels)
                label = f"CP{n}:{levels[0]}x{levels[1]}x{levels[2]}"
                ops.append(Op(label, partial(_associativity, a, b, c)))
        rounds.append(ops)
    return rounds


# -- cpn_folds -----------------------------------------------------------

# (n, level, K, kind) with copies.  An irreducible element's top component
# is not divisible by x; a relevelled one is the image of an irreducible
# element two levels down, so ``minimized`` descends.  Half the ops of a
# round are of each kind.  Cheap shapes take the first quarter of a round;
# two shapes of about equal cost, one of each kind, take the middle half and
# hold the median; the dearest shapes, CP^3 and the higher levels, hold the
# 90th percentile.
FOLD_SPECS = [
    ((1, 3, 1, "irreducible"), 2), ((1, 3, 1, "relevelled"), 2),
    ((1, 4, 1, "irreducible"), 1), ((1, 4, 1, "relevelled"), 1),
    ((1, 4, 2, "irreducible"), 1), ((1, 4, 2, "relevelled"), 1), ((2, 3, 1, "relevelled"), 1),
    ((1, 5, 2, "irreducible"), 7), ((2, 3, 2, "relevelled"), 7),
    ((2, 3, 2, "irreducible"), 1), ((1, 5, 2, "relevelled"), 1), ((1, 6, 3, "irreducible"), 1),
    ((3, 3, 1, "irreducible"), 1), ((3, 3, 2, "relevelled"), 1), ((1, 6, 3, "relevelled"), 1),
    ((2, 4, 2, "irreducible"), 1), ((3, 3, 2, "irreducible"), 1), ((2, 4, 2, "relevelled"), 1),
]
FOLD_ROUNDS = 8
GENERIC_ALPHA = Fraction(2, 7)


def _irreducible(rng: random.Random, n: int, level: int):
    """A random element whose top component is not divisible by x."""
    while True:
        element = sized_element(rng, n, level)
        top = element.components.get(level)
        if top is not None and symbols.reduce_degree(top) is None:
            return element


def _fold(element, least, K: int) -> bool:
    minimal = element.minimized()
    if minimal != least or minimal.relevel(element.level) != element:
        return False
    if quotient.substitute(element, GENERIC_ALPHA) != quotient.substitute(minimal, GENERIC_ALPHA):
        return False
    image = quotient.quotient_map(element, K)
    if image != quotient.quotient_map(minimal, K):
        return False
    member = element - quotient.representative_element(image)
    factorization = quotient.ideal_factorize(member, Fraction(1, K))
    return factorization.reconstruction() == member


def setup_folds(rng: random.Random, workdir: Path) -> list[list[Op]]:
    rounds = []
    for _ in range(FOLD_ROUNDS):
        ops = []
        for (n, level, K, kind), copies in FOLD_SPECS:
            for _ in range(copies):
                if kind == "irreducible":
                    least = element = _irreducible(rng, n, level)
                else:
                    least = _irreducible(rng, n, level - 2)
                    element = least.relevel(level)
                ops.append(Op(f"CP{n}:L{level}:K{K}:{kind}", partial(_fold, element, least, K)))
        rounds.append(ops)
    return rounds


# -- nu_coefficients -------------------------------------------------------

# One round: embedding-independence checks for these (n, degree f, degree g),
# disk associativity triples and golden basis products, in turn.  The median
# falls among the fourteen small embedding checks, the 90th percentile among
# the six large ones.
EMBED_SHAPES = [(1, 1, 2), (1, 2, 1)] * 7 + [(1, 2, 2), (2, 1, 1)] * 3
DISK_TRIPLES = 4
BASIS_PRODUCTS = 6
NU_ROUNDS = 8
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "disk_coefficients_golden.json"


def _embedding_independent(f, g) -> bool:
    degree = f.k + g.k + 2
    base = star.star_symbols(f, g).nrf_map(degree)
    lifted = star.star_symbols(symbols.embed(f), symbols.embed(g)).nrf_map(degree)
    return base == lifted


def _disk_associativity(a, b, c) -> bool:
    left = disk.disk_product(disk.disk_product(a, b), c)
    return left == disk.disk_product(a, disk.disk_product(b, c))


def _basis_product(p: int, q: int, r: int, s: int, golden: str) -> bool:
    product = disk.disk_product(disk.DiskElement.basis(p, q), disk.DiskElement.basis(r, s))
    with checking():
        record = {"left": [p, q], "product": serialize.disk_to_json(product), "right": [r, s]}
        return serialize.canonical_dumps(record) == golden


def load_golden() -> dict[tuple[int, int, int, int], str]:
    """Golden disk products keyed by (p, q, r, s), each as canonical text."""
    text = GOLDEN.read_text(encoding="utf-8")
    data = json.loads(text)
    if serialize.canonical_dumps(data) != text.strip():
        raise ValueError(f"{GOLDEN.name} is not canonical JSON")
    return {
        (*record["left"], *record["right"]): serialize.canonical_dumps(record)
        for record in data["products"]
    }


def setup_nu(rng: random.Random, workdir: Path) -> list[list[Op]]:
    golden = load_golden()
    keys = sorted(golden)
    rounds = []
    for _ in range(NU_ROUNDS):
        embeds, triples, basis = [], [], []
        for n, k, l in EMBED_SHAPES:
            f = sized_symbol(rng, n, k, density=0.7)
            g = sized_symbol(rng, n, l, density=0.7)
            embeds.append(Op(f"embed:CP{n}:{k}x{l}", partial(_embedding_independent, f, g)))
        for _ in range(DISK_TRIPLES):
            a, b, c = (sized_disk(rng) for _ in range(3))
            triples.append(Op("disk:triple", partial(_disk_associativity, a, b, c)))
        for _ in range(BASIS_PRODUCTS):
            key = rng.choice(keys)
            basis.append(Op("disk:basis", partial(_basis_product, *key, golden[key])))
        kinds = [embeds, triples, basis]
        ops = []
        while any(kinds):
            for kind in kinds:
                if kind:
                    ops.append(kind.pop(0))
        rounds.append(ops)
    return rounds


# -- cli_requests ----------------------------------------------------------

# Rounds reuse 8 sets of input files; check suites get fresh seeds every round.
# A round's costs spread evenly from 2 ms to 200 ms, so the median would sit
# among many request kinds and move with the seed.  Twelve CP^1 2x2 `star`
# requests and fourteen `torus` requests fix it: the cheap torus requests
# balance the dearer kinds, and the star requests hold the middle.
CLI_INPUT_SETS = 8
CLI_ROUNDS = 32
TORUS_K = 3
TORUS_REQUESTS = 14
# (n, level left, level right) of the `star` requests in a round.
STAR_PAIRS = [(1, 3, 2), (2, 2, 1), (2, 1, 1)] + [(1, 2, 2)] * 12
# (n, level A, level B, K) of the eval sessions in a round.
EVAL_SESSIONS = [(1, 3, 2, 2), (2, 1, 2, 1), (1, 2, 3, 3)]
# (n, level, K) of the `quotient` requests and (n, level, alpha) of `subst`.
QUOTIENT_REQUESTS = [(1, 3, 2), (2, 3, 2), (2, 2, 1)]
SUBST_REQUESTS = [(1, 3, "1/3"), (2, 3, "2/7"), (2, 2, "-3/5")]
SUITES_WITH_INSTANCES = ("assoc", "powers", "invariance", "quotient", "torus", "disk")
SUITES_WITHOUT_INSTANCES = ("starexp", "oracle")
DEEP_NESTING = 3000


def _canonical(text: str) -> dict | None:
    """The payload of a response, if it is one line of canonical JSON."""
    data = json.loads(text)
    return data if serialize.canonical_dumps(data) + "\n" == text else None


def _round_trips(tagged) -> bool:
    """The tagged value re-dumps byte-identically through its loader."""
    again = cli.value_to_tagged(cli.tagged_to_value(tagged))
    return serialize.canonical_dumps(again) == serialize.canonical_dumps(tagged)


def _value_response(expected: str | None, text: str) -> bool:
    data = _canonical(text)
    if data is None or not _round_trips(data):
        return False
    return expected is None or serialize.canonical_dumps(data) == expected


def _eval_response(expected: str | None, text: str) -> bool:
    data = _canonical(text)
    if data is None or not _round_trips(data["result"]):
        return False
    return expected is None or serialize.canonical_dumps(data["result"]) == expected


def _torus_response(expected: str, text: str) -> bool:
    data = _canonical(text)
    if data is None or not _round_trips(data["product"]):
        return False
    return serialize.canonical_dumps(data) == expected


def _check_response(suite: str, text: str) -> bool:
    data = _canonical(text)
    return data is not None and data["suite"] == suite and data["passed"] is True


def _cli_request(argv: list[str], code: int, check: Callable[[str], bool] | None) -> bool:
    """One in-process ``cpstar`` call: exit code, then payload or silence."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    if status != code or "Traceback" in err.getvalue():
        return False
    if check is None:
        return out.getvalue() == "" and err.getvalue() != ""
    with checking():
        return check(out.getvalue())


def _tagged_text(value) -> str:
    return serialize.canonical_dumps(cli.value_to_tagged(value))


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _request(label: str, argv: list[str], code: int = 0, check=None) -> Op:
    return Op(label, partial(_cli_request, argv, code, check))


def _cli_inputs(rng: random.Random, workdir: Path, index: int) -> tuple[list[Op], list[Op]]:
    """Requests on input files, with their expectations, and malformed requests."""
    def element(n: int, level: int):
        return sized_element(rng, n, level)

    def path(name: str) -> Path:
        return workdir / f"r{index}-{name}.json"

    ops = []
    for i, (n, la, lb) in enumerate(STAR_PAIRS):
        a, b = element(n, la), element(n, lb)
        pair = {"left": cli.value_to_tagged(a), "right": cli.value_to_tagged(b)}
        expected = _tagged_text(star.star_elements(a, b))
        ops.append(_request(f"star:CP{n}:{la}x{lb}", ["star", "--input", _write(path(f"star{i}"), pair)],
                           check=partial(_value_response, expected)))
    for i, (n, la, lb, K) in enumerate(EVAL_SESSIONS):
        a, b = element(n, la), element(n, lb)
        session = {
            "n": n,
            "seed": index,
            "bindings": {"A": cli.value_to_tagged(a), "B": cli.value_to_tagged(b)},
        }
        source = _write(path(f"session{i}"), session)
        folds = quotient.quotient_map(a, K).compose(quotient.quotient_map(b, K))
        for expression, expected in (
            ("A * B", _tagged_text(star.star_elements(a, b))),
            ("A ^ 2", None),
            (f"subst({GENERIC_ALPHA})(A * B)", None),
            (f"quot({K})(A * B)", _tagged_text(folds)),
        ):
            ops.append(_request(f"eval:CP{n}:{expression.split('(')[0]}", ["eval", expression, "--input", source],
                               check=partial(_eval_response, expected)))
    for i, (n, level, K) in enumerate(QUOTIENT_REQUESTS):
        x = element(n, level)
        source = _write(path(f"quotient{i}"), cli.value_to_tagged(x))
        expected = _tagged_text(quotient.quotient_map(x, K))
        ops.append(_request(f"quotient:CP{n}:L{level}:K{K}", ["quotient", "--K", str(K), "--input", source],
                           check=partial(_value_response, expected)))
    for i, (n, level, alpha) in enumerate(SUBST_REQUESTS):
        x = element(n, level)
        source = _write(path(f"subst{i}"), cli.value_to_tagged(x))
        expected = _tagged_text(quotient.substitute(x, alpha))
        ops.append(_request(f"subst:CP{n}:L{level}", ["subst", f"--alpha={alpha}", "--input", source],
                           check=partial(_value_response, expected)))
    parameter = Fraction(1, TORUS_K)
    for i in range(TORUS_REQUESTS):
        f, g = (randgen.random_fourier(rng, 2, checks.STANDARD_SYMPLECTIC, parameter) for _ in range(2))
        pair = {"left": cli.value_to_tagged(f), "right": cli.value_to_tagged(g)}
        product = torus.moyal_product(f, g)
        expected = serialize.canonical_dumps({
            "product": cli.value_to_tagged(product),
            "folded": cli._fold_to_json(torus.torus_quotient(product, TORUS_K)),
            "dimension": torus.torus_quotient_dimension(2, TORUS_K),
        })
        ops.append(_request("torus", ["torus", "--K", str(TORUS_K), "--input", _write(path(f"torus{i}"), pair)],
                           check=partial(_torus_response, expected)))
    for i in range(3):
        a, b = (sized_disk(rng) for _ in range(2))
        pair = {"left": cli.value_to_tagged(a), "right": cli.value_to_tagged(b)}
        expected = _tagged_text(disk.disk_product(a, b))
        ops.append(_request("disk", ["disk", "--input", _write(path(f"disk{i}"), pair)],
                           check=partial(_value_response, expected)))
    # malformed requests: each must exit 2 with a message and no traceback
    nested = "(" * DEEP_NESTING + "unit" + ")" * DEEP_NESTING
    malformed = [
        _request("bad:syntax", ["eval", "A * * B", "--input", str(path("session0"))], code=2),
        _request("bad:unbalanced", ["eval", "(A * B", "--input", str(path("session0"))], code=2),
        _request("bad:unbound", ["eval", "C * A", "--input", str(path("session0"))], code=2),
        _request("bad:override", ["check", "--suite", "starexp", "--instances", "2"], code=2),
        _request("bad:subst-zero", ["eval", "subst(1/0)(unit)"], code=2),
        _request("bad:deep-nesting", ["eval", nested], code=2),
    ]
    return ops, malformed


def _cli_checks(rng: random.Random) -> list[Op]:
    ops = []
    for suite in SUITES_WITH_INSTANCES + SUITES_WITHOUT_INSTANCES:
        argv = ["check", "--suite", suite, "--seed", str(rng.randrange(10**6))]
        if suite in SUITES_WITH_INSTANCES:
            argv += ["--instances", "1"]
        ops.append(_request(f"check:{suite}", argv, check=partial(_check_response, suite)))
    return ops


def setup_cli(rng: random.Random, workdir: Path) -> list[list[Op]]:
    inputs = [_cli_inputs(rng, workdir, index) for index in range(CLI_INPUT_SETS)]
    rounds = []
    for index in range(CLI_ROUNDS):
        requests, malformed = inputs[index % CLI_INPUT_SETS]
        rounds.append(requests + _cli_checks(rng) + malformed)
    return rounds


# -- registry --------------------------------------------------------------


def warm_nu_pochhammer() -> None:
    """Fill the Pochhammer caches up to the largest level any workload uses."""
    for k in range(13):
        nupoly.nu_pochhammer(k)
        disk.neg_nu_pochhammer(k)


def warm_disk() -> None:
    """Also fill the disk weights that products of index-3 elements reach.

    Triple products multiply an index-6 left factor by an index-3 right one,
    or an index-3 left factor by an index-6 right one.
    """
    warm_nu_pochhammer()
    for q in range(7):
        for r in range(7):
            for s in range(7):
                if q <= 3 or (r <= 3 and s <= 3):
                    for m in range(min(q, r) + 1):
                        disk.disk_basis_coefficient(q, r, s, m)


class Workload(NamedTuple):
    setup: Callable[[random.Random, Path], list[list[Op]]]
    warm_up: Callable[[], None]


WORKLOADS = {
    "cpn_products": Workload(setup_products, warm_nu_pochhammer),
    "cpn_folds": Workload(setup_folds, warm_nu_pochhammer),
    "nu_coefficients": Workload(setup_nu, warm_disk),
    "cli_requests": Workload(setup_cli, warm_disk),
}
