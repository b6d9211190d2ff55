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

from .checks import SUITES, run_suite
from .expr import EvalError, ParseError, Session, evaluate, parse
from .models.disk import DiskElement, disk_product
from .models.torus import (
    FourierSum,
    TorusQuotientElement,
    moyal_product,
    torus_quotient,
    torus_quotient_dimension,
)
from .nupoly import NuRationalFunction
from .quotient import QuotientOperator, StarUndefinedError, quotient_map, substitute
from .scalars import GaussRational, parse_rational
from .serialize import (
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
from .star import RawNuSeries, StarElement, star_elements
from .symbols import SymbolTensor, symbol_of_matrix

__all__ = ["main"]


class UsageError(ValueError):
    """Malformed input or an ill-typed request; maps to exit code 2."""


# -- tagged values -----------------------------------------------------

_LOADERS = {
    "matrix": matrix_from_json,
    "symbol": symbol_from_json,
    "element": element_from_json,
    "series": series_from_json,
    "operator": quotient_operator_from_json,
    "fourier": fourier_from_json,
    "disk": disk_from_json,
}


def _scalar_from_json(data) -> GaussRational | NuRationalFunction:
    if isinstance(data, dict) and "num" in data:
        return NuRationalFunction.from_json(data)
    if isinstance(data, str) or (isinstance(data, dict) and "re" in data):
        return GaussRational.from_json(data)
    raise UsageError(f"unrecognized scalar payload: {data!r}")


def tagged_to_value(data):
    """Decode one JSON value, tagged or bare."""
    if isinstance(data, dict) and "type" in data and "value" in data:
        kind = data["type"]
        if kind == "scalar":
            return _scalar_from_json(data["value"])
        try:
            loader = _LOADERS[kind]
        except KeyError:
            raise UsageError(f"unknown value type {kind!r}") from None
        return loader(data["value"])
    if isinstance(data, list):
        return matrix_from_json(data)
    if isinstance(data, dict):
        for key, loader in (
            ("components", element_from_json),
            ("powers", series_from_json),
            ("Lambda", fourier_from_json),
            ("K", quotient_operator_from_json),
            ("entries", symbol_from_json),
            ("coeffs", disk_from_json),
            ("num", NuRationalFunction.from_json),
            ("re", GaussRational.from_json),
        ):
            if key in data:
                return loader(data)
    raise UsageError(f"unrecognized value payload: {data!r}")


def value_to_tagged(value) -> dict:
    """Encode one computed value with its type tag."""
    if isinstance(value, (GaussRational, NuRationalFunction)):
        return {"type": "scalar", "value": value.to_json()}
    if isinstance(value, list):
        return {"type": "matrix", "value": matrix_to_json(value)}
    if isinstance(value, SymbolTensor):
        return {"type": "symbol", "value": symbol_to_json(value)}
    if isinstance(value, StarElement):
        return {"type": "element", "value": element_to_json(value)}
    if isinstance(value, RawNuSeries):
        return {"type": "series", "value": series_to_json(value)}
    if isinstance(value, QuotientOperator):
        return {"type": "operator", "value": quotient_operator_to_json(value)}
    if isinstance(value, FourierSum):
        return {"type": "fourier", "value": fourier_to_json(value)}
    if isinstance(value, DiskElement):
        return {"type": "disk", "value": disk_to_json(value)}
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


def _as_element(value) -> StarElement:
    if isinstance(value, list):
        value = symbol_of_matrix(value)
    if isinstance(value, SymbolTensor):
        value = StarElement.lift(value)
    if not isinstance(value, StarElement):
        raise UsageError(f"expected a symbol or filtered element, got {type(value).__name__}")
    return value


# -- subcommands -------------------------------------------------------


def _cmd_star(args) -> int:
    left, right = _load_pair(args.input)
    if isinstance(left, FourierSum) and isinstance(right, FourierSum):
        result = moyal_product(left, right)
    elif isinstance(left, DiskElement) and isinstance(right, DiskElement):
        result = disk_product(left, right)
    else:
        result = star_elements(_as_element(left), _as_element(right))
    _write_output(value_to_tagged(result), args.output)
    return 0


def _session_int(data: dict, name: str, default: int) -> int:
    value = data.get(name, default)
    if type(value) is not int:  # rejects bool, float and "2" alike
        raise UsageError(f'"{name}" must be a JSON integer, got {value!r}')
    return value


def _cmd_eval(args) -> int:
    tree = parse(args.expression)
    session = Session()
    if args.input:
        data = _read_json(args.input)
        if not isinstance(data, dict):
            raise UsageError("session input must be a JSON object")
        session = Session(n=_session_int(data, "n", 1), seed=_session_int(data, "seed", 0))
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
    operator = quotient_map(element, args.K)
    _write_output(value_to_tagged(operator), args.output)
    return 0


def _cmd_subst(args) -> int:
    element = _as_element(tagged_to_value(_read_json(args.input)))
    tensor = substitute(element, args.alpha)
    _write_output(value_to_tagged(tensor), args.output)
    return 0


def _cmd_torus(args) -> int:
    left, right = _load_pair(args.input)
    if not isinstance(left, FourierSum) or not isinstance(right, FourierSum):
        raise UsageError("torus expects two Fourier sums")
    product = moyal_product(left, right)
    payload = {"product": value_to_tagged(product)}
    if args.K is not None:
        folded = torus_quotient(product, args.K)
        payload["folded"] = _fold_to_json(folded)
        payload["dimension"] = torus_quotient_dimension(left.dim, args.K)
    _write_output(payload, args.output)
    return 0


def _cmd_disk(args) -> int:
    left, right = _load_pair(args.input)
    if not isinstance(left, DiskElement) or not isinstance(right, DiskElement):
        raise UsageError("disk expects two disk elements")
    _write_output(value_to_tagged(disk_product(left, right)), args.output)
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
        print(f"cpstar: syntax error at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    except StarUndefinedError as exc:
        print(f"cpstar: {exc}", file=sys.stderr)
        return 2
    except (UsageError, EvalError, ValueError, KeyError, TypeError) as exc:
        print(f"cpstar: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
