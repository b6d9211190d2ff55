"""``cpstar`` command line: star products, quotients, and check suites.

Inputs are JSON files (or ``-`` for stdin).  Values may be wrapped in a
tagged envelope ``{"type": ..., "value": ...}`` or given bare, in which
case the loader recognizes the format from its fields.  Outputs always
use the tagged envelope and canonical JSON, so they are byte-stable.

Exit codes: 0 on success, 1 when a check suite finds a counterexample,
2 on usage errors (bad syntax, unbound names, malformed input, or a
vanishing star-product denominator).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from operator import methodcaller
from typing import Callable, NamedTuple

from .checks import SUITES, run_suite
from .expr import EvalError, ParseError, Session, evaluate, fold_value, parse, star_values, substitute_value
from .models.disk import DiskElement
from .models.torus import FourierSum, TorusQuotientElement, torus_quotient_dimension
from .nupoly import NuRationalFunction
from .quotient import QuotientOperator, StarUndefinedError
from .scalars import GaussRational, _check_digits, parse_rational
from .serialize import (
    _json_int,
    _mode_coeffs_to_json,
    canonical_dumps,
    disk_from_json,
    disk_to_json,
    element_from_json,
    element_to_json,
    fourier_from_json,
    fourier_to_json,
    matrix_from_json,
    matrix_to_json,
    quotient_operator_from_json,
    quotient_operator_to_json,
    series_from_json,
    series_to_json,
    symbol_from_json,
    symbol_to_json,
)
from .star import RawNuSeries, StarElement
from .symbols import SymbolTensor, symbol_of_matrix

__all__ = ["main"]


class UsageError(ValueError):
    """Malformed input or an ill-typed request; maps to exit code 2."""


# -- tagged values -----------------------------------------------------


class _WireType(NamedTuple):
    classes: tuple[type, ...]
    load: Callable
    dump: Callable
    fields: tuple[str, ...]  # any one of them marks a bare payload of this type


def _scalar_from_json(data) -> GaussRational | NuRationalFunction:
    if isinstance(data, dict) and "num" in data:
        return NuRationalFunction.from_json(data)
    if isinstance(data, str) or (isinstance(data, dict) and "re" in data):
        return GaussRational.from_json(data)
    raise UsageError(f"unrecognized scalar payload: {data!r}")


# Every wire type by its tag.  A bare JSON list is a matrix; a bare object
# is the first type, in this order, that has one of its marking fields.
_WIRE_TYPES = {
    "matrix": _WireType((list,), matrix_from_json, matrix_to_json, ()),
    "element": _WireType((StarElement,), element_from_json, element_to_json, ("components",)),
    "series": _WireType((RawNuSeries,), series_from_json, series_to_json, ("powers",)),
    "fourier": _WireType((FourierSum,), fourier_from_json, fourier_to_json, ("Lambda",)),
    "operator": _WireType((QuotientOperator,), quotient_operator_from_json, quotient_operator_to_json, ("K",)),
    "symbol": _WireType((SymbolTensor,), symbol_from_json, symbol_to_json, ("entries",)),
    "disk": _WireType((DiskElement,), disk_from_json, disk_to_json, ("coeffs",)),
    "scalar": _WireType(
        (GaussRational, NuRationalFunction), _scalar_from_json, methodcaller("to_json"), ("num", "re")
    ),
}


def _bare_tag(data) -> str:
    if isinstance(data, list):
        return "matrix"
    if isinstance(data, dict):
        for tag, wire in _WIRE_TYPES.items():
            if any(name in data for name in wire.fields):
                return tag
    raise UsageError(f"unrecognized value payload: {data!r}")


def tagged_to_value(data):
    """Decode one JSON value, tagged or bare."""
    if isinstance(data, dict) and "type" in data and "value" in data:
        tag, data = data["type"], data["value"]
    else:
        tag = _bare_tag(data)
    try:
        wire = _WIRE_TYPES[tag]
    except KeyError:
        raise UsageError(f"unknown value type {tag!r}") from None
    return wire.load(data)


def value_to_tagged(value) -> dict:
    """Encode one computed value with its type tag."""
    for tag, wire in _WIRE_TYPES.items():
        if isinstance(value, wire.classes):
            return {"type": tag, "value": wire.dump(value)}
    raise UsageError(f"cannot serialize {type(value).__name__}")


def _fold_to_json(element: TorusQuotientElement) -> dict:
    return {
        "dim": element.dim,
        "Lambda": [list(row) for row in element.matrix],
        "K": element.K,
        "coeffs": _mode_coeffs_to_json(element.coeffs),
    }


# -- I/O plumbing ------------------------------------------------------


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"invalid JSON in {path!r}: {exc}") from exc


def _write_output(payload, path: str | None) -> None:
    text = canonical_dumps(payload)
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_pair(path: str):
    data = _read_json(path)
    if not isinstance(data, dict) or "left" not in data or "right" not in data:
        raise UsageError('expected an object with "left" and "right" fields')
    return tagged_to_value(data["left"]), tagged_to_value(data["right"])


def _as_element(value) -> SymbolTensor | StarElement:
    """A matrix as its symbol, a symbol or filtered element as it is; ``expr`` lifts both."""
    if isinstance(value, list):
        value = symbol_of_matrix(value)
    if not isinstance(value, (SymbolTensor, StarElement)):
        raise UsageError(f"expected a symbol or filtered element, got {type(value).__name__}")
    return value


# -- subcommands -------------------------------------------------------


def _cmd_star(args) -> int:
    left, right = _load_pair(args.input)
    # two Fourier sums or two disk elements take their model's product
    if type(left) is not type(right) or not isinstance(left, (FourierSum, DiskElement)):
        left, right = _as_element(left), _as_element(right)
    _write_output(value_to_tagged(star_values(left, right)), args.output)
    return 0


def _cmd_eval(args) -> int:
    tree = parse(args.expression)
    session = Session()
    if args.input:
        data = _read_json(args.input)
        if not isinstance(data, dict):
            raise UsageError("session input must be a JSON object")
        session = Session(n=_json_int(data.get("n", 1), '"n"'), seed=_json_int(data.get("seed", 0), '"seed"'))
        bindings = data.get("bindings", {})
        if not isinstance(bindings, dict):
            raise UsageError('"bindings" must be a JSON object of name: value pairs')
        for name, payload in bindings.items():
            session.bind(name, tagged_to_value(payload))
    result = evaluate(tree, session)
    _write_output(
        {
            "expression": args.expression,
            "n": session.n,
            "seed": session.seed,
            "result": value_to_tagged(result),
        },
        args.output,
    )
    return 0


def _cmd_quotient(args) -> int:
    element = _as_element(tagged_to_value(_read_json(args.input)))
    _write_output(value_to_tagged(fold_value(element, args.K)), args.output)
    return 0


def _cmd_subst(args) -> int:
    element = _as_element(tagged_to_value(_read_json(args.input)))
    _write_output(value_to_tagged(substitute_value(element, args.alpha)), args.output)
    return 0


def _cmd_torus(args) -> int:
    left, right = _load_pair(args.input)
    if not isinstance(left, FourierSum) or not isinstance(right, FourierSum):
        raise UsageError("torus expects two Fourier sums")
    product = star_values(left, right)
    payload = {"product": value_to_tagged(product)}
    if args.K is not None:
        payload["folded"] = _fold_to_json(fold_value(product, args.K))
        dimension = torus_quotient_dimension(left.dim, args.K)
        _check_digits(dimension)  # K**dim may be too long for the JSON writer
        payload["dimension"] = dimension
    _write_output(payload, args.output)
    return 0


def _cmd_disk(args) -> int:
    left, right = _load_pair(args.input)
    if not isinstance(left, DiskElement) or not isinstance(right, DiskElement):
        raise UsageError("disk expects two disk elements")
    _write_output(value_to_tagged(star_values(left, right)), args.output)
    return 0


def _cmd_check(args) -> int:
    report = run_suite(
        args.suite,
        seed=args.seed,
        n=args.n,
        K=args.K,
        instances=args.instances,
    )
    _write_output(report.to_json(), args.output)
    status = "pass" if report.passed else "FAIL"
    print(f"{args.suite}: {status} ({report.instances} instances, seed {args.seed})", file=sys.stderr)
    return 0 if report.passed else 1


# -- argument parsing --------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpstar",
        description="Exact star products on complex projective space and companion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, input_help):
        p.add_argument("--input", default="-", help=input_help + " ('-' for stdin)")
        p.add_argument("--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("star", help="star-multiply two values")
    io_flags(p, 'JSON object {"left": ..., "right": ...}')
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("eval", help="evaluate an expression over named bindings")
    p.add_argument("expression", help="expression, e.g. 'sigma(A) * sigma(B)'")
    p.add_argument("--input", default=None, help='session JSON {"n", "seed", "bindings"}')
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("quotient", help="fold a filtered element to the level-K matrix algebra")
    p.add_argument("--K", type=_positive_int, required=True, help="quotient level")
    io_flags(p, "element JSON")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("subst", help="substitute a number for the formal parameter")
    p.add_argument(
        "--alpha",
        type=_fraction,
        required=True,
        help="rational value, e.g. 1/2; write a negative one as --alpha=-3/5",
    )
    io_flags(p, "element JSON")
    p.set_defaults(handler=_cmd_subst)

    p = sub.add_parser("torus", help="Moyal product of Fourier sums, optionally folded mod K")
    p.add_argument("--K", type=_positive_int, default=None, help="fold modes modulo K")
    io_flags(p, 'JSON object {"left": ..., "right": ...} of Fourier sums')
    p.set_defaults(handler=_cmd_torus)

    p = sub.add_parser("disk", help="product of disk-basis elements")
    io_flags(p, 'JSON object {"left": ..., "right": ...} of disk elements')
    p.set_defaults(handler=_cmd_disk)

    p = sub.add_parser("check", help="run a property-check suite")
    p.add_argument("--suite", required=True, choices=SUITES, help="suite name")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--n", type=_positive_int, default=None, help="projective dimension override")
    p.add_argument("--K", type=_positive_int, default=None, help="quotient level override")
    p.add_argument("--instances", type=_positive_int, default=None, help="instance count override")
    p.add_argument("--output", default=None, help="report file (default stdout)")
    p.set_defaults(handler=_cmd_check)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in the process, built on the
    first: parsing returns a fresh namespace and leaves the parser as it is."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"cpstar: syntax error at position {exc.position}: {exc.message}", file=sys.stderr)
        return 2
    except (UsageError, EvalError, StarUndefinedError, ValueError, KeyError, TypeError) as exc:
        print(f"cpstar: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
