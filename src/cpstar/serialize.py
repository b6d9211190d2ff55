"""JSON wire formats for every value the command line reads or writes.

Conventions, shared across all formats:

- rationals are strings ``"p/q"`` with the denominator omitted when 1;
- exact complex scalars are ``{"re": "p/q", "im": "p/q"}``; matrix cells
  may also be bare integers or ``"p/q"`` strings, taken as real;
- polynomial coefficient arrays run from the lowest degree up;
- symbol tensors list entries at sorted multi-indices; the loader accepts
  the letters of an index in any order and adds up the entries of one
  sorted pair;
- sizes, degrees, levels, indices and mode entries are JSON integers only
  (a float, a boolean or a string is a ``ValueError``), and ``powers`` keys
  are plain decimal strings;
- a missing field, or a list or object of the wrong kind, is a
  ``ValueError`` that names the field;
- ``canonical_dumps`` writes all canonical JSON through one prebuilt
  encoder with sorted keys and compact separators, making the output
  byte-stable for golden-file comparisons; it takes trees only, since it
  does not track cycles.
"""

from __future__ import annotations

import json
import re

from .models.disk import DiskElement
from .models.torus import FourierSum, PhaseSum, _from_parts
from .multiindex import _unranked
from .nupoly import NuRationalFunction
from .quotient import QuotientOperator
from .scalars import GaussRational, _format_ratio, _rational_parts, _required, _shaped, parse_rational
from .star import RawNuSeries, StarElement
from .symbols import SymbolTensor

__all__ = [
    "canonical_dumps",
    "symbol_to_json",
    "symbol_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "element_to_json",
    "element_from_json",
    "series_to_json",
    "series_from_json",
    "quotient_operator_to_json",
    "quotient_operator_from_json",
    "fourier_to_json",
    "fourier_from_json",
    "disk_to_json",
    "disk_from_json",
]


# ``ensure_ascii`` and ``allow_nan`` keep their defaults, so the bytes are
# those of ``json.dumps(value, sort_keys=True, separators=(",", ":"))``.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_dumps(value) -> str:
    """Deterministic JSON text: sorted keys, compact separators, written by
    one prebuilt encoder.

    The value must be a tree, as every dumper here and ``json.loads``
    return one: the encoder does not track cycles, so a list or dict that
    contains itself raises ``RecursionError`` from its depth guard rather
    than ``ValueError``."""
    return _CANONICAL.encode(value)


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # rejects bool, float and "2" alike
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


# -- symbols -----------------------------------------------------------


def symbol_to_json(tensor: SymbolTensor) -> dict:
    """Entries at sorted index pairs, each part formatted straight from
    ``cells[key] / (den mult(I) mult(J))``, with the pair and its weight
    read in one lookup of ``multiindex._unranked``; sorted cell keys list the
    pairs ``(I, J)`` in lex order."""
    den = tensor.den
    unranked = _unranked(tensor.n, tensor.k)
    entries = []
    for key, (real, imag) in sorted(tensor.cells.items()):
        left, right, weight = unranked[key]
        d = den * weight
        entries.append(
            {"I": list(left), "J": list(right), "re": _format_ratio(real, d), "im": _format_ratio(imag, d)}
        )
    return {"n": tensor.n, "k": tensor.k, "entries": entries}


def _json_letters(listed: list, what: str) -> tuple[int, ...]:
    """The index letters of a JSON list, as given: each a JSON integer."""
    for a in listed:
        if type(a) is not int:
            _json_int(a, what)
    return tuple(listed)


def symbol_from_json(data: dict) -> SymbolTensor:
    """Load a symbol; letters may come in any order, repeated index pairs
    add up and entries that cancel are dropped.  The letters go to
    ``SymbolTensor._from_parts`` as given and each part as an int pair, so
    no ``GaussRational`` is built per entry."""
    n = _json_int(_required(data, "n", "symbol"), 'symbol "n"')
    k = _json_int(_required(data, "k", "symbol"), 'symbol "k"')
    parts = []
    for entry in _shaped(data.get("entries", []), list, 'symbol "entries"'):
        left = _json_letters(_required(entry, "I", "symbol entry", list), 'index letter in "I"')
        right = _json_letters(_required(entry, "J", "symbol entry", list), 'index letter in "J"')
        a, b = _rational_parts(entry.get("re", "0"))
        c, d = _rational_parts(entry.get("im", "0"))
        parts.append((left, right, a, b, c, d))
    return SymbolTensor._from_parts(n, k, parts)


def matrix_to_json(matrix) -> list:
    return [[value.to_json() for value in row] for row in matrix]


def matrix_from_json(data) -> list[list[GaussRational]]:
    return [
        [GaussRational.from_json(cell) for cell in _shaped(row, list, "matrix row")]
        for row in _shaped(data, list, "matrix")
    ]


# -- filtered elements and raw series ---------------------------------


def element_to_json(element: StarElement) -> dict:
    components = []
    for r in range(element.level, -1, -1):
        tensor = element.components.get(r)
        components.append(None if tensor is None else symbol_to_json(tensor))
    return {"n": element.n, "level": element.level, "components": components}


def element_from_json(data: dict) -> StarElement:
    n = _json_int(_required(data, "n", "element"), 'element "n"')
    level = _json_int(_required(data, "level", "element"), 'element "level"')
    components: dict[int, SymbolTensor] = {}
    listed = _shaped(data.get("components", []), list, 'element "components"')
    if len(listed) != level + 1:
        raise ValueError("component list must run from the level down to zero")
    for offset, payload in enumerate(listed):
        if payload is None:
            continue
        tensor = symbol_from_json(_shaped(payload, dict, 'element "components" item'))
        if not tensor.is_zero():
            components[level - offset] = tensor
    return StarElement(n, level, components)


def series_to_json(series: RawNuSeries) -> dict:
    return {
        "n": series.n,
        "degree": series.degree,
        "powers": {
            str(p): symbol_to_json(t) for p, t in sorted(series.powers.items())
        },
    }


def _json_power(key: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", key):
        raise ValueError(f'series power must be a decimal integer string, got {key!r}')
    return int(key)


def series_from_json(data: dict) -> RawNuSeries:
    n = _json_int(_required(data, "n", "series"), 'series "n"')
    degree = _json_int(_required(data, "degree", "series"), 'series "degree"')
    listed = data.get("powers", {})
    if not isinstance(listed, dict):
        raise ValueError(f'series "powers" must be an object of power: symbol pairs, got {listed!r}')
    powers = {
        _json_power(power): symbol_from_json(_shaped(payload, dict, 'series "powers" item'))
        for power, payload in listed.items()
    }
    return RawNuSeries(n, degree, powers)


def quotient_operator_to_json(operator: QuotientOperator) -> dict:
    payload = symbol_to_json(operator.tensor)
    payload["K"] = operator.K
    return payload


def quotient_operator_from_json(data: dict) -> QuotientOperator:
    return QuotientOperator(_json_int(_required(data, "K", "operator"), 'operator "K"'), symbol_from_json(data))


# -- companion models --------------------------------------------------


def _mode_coeffs_to_json(coeffs: dict[tuple[int, ...], PhaseSum]) -> list:
    """The ``"coeffs"`` list of a Fourier sum or a folded torus element:
    one ``{"k", "terms"}`` item per mode, in sorted mode order, and one
    ``{"amp", "phase"}`` term per phase, in increasing phase order."""
    items = []
    for mode in sorted(coeffs):
        value = coeffs[mode]
        mod, den, amps = value.mod, value.den, value.amps
        terms = [{"amp": _format_ratio(amps[r], den), "phase": _format_ratio(r, mod)} for r in sorted(amps)]
        items.append({"k": list(mode), "terms": terms})
    return items


def fourier_to_json(func: FourierSum) -> dict:
    parameter = func.parameter
    return {
        "dim": func.dim,
        "Lambda": [list(row) for row in func.matrix],
        "lambda": _format_ratio(parameter.numerator, parameter.denominator),
        "coeffs": _mode_coeffs_to_json(func.coeffs),
    }


def _phase_sum_from_json(terms: list) -> PhaseSum:
    """The value of a ``"terms"`` list: amplitudes at phases equal modulo
    one add up."""
    parts = []
    for term in terms:
        if not isinstance(term, dict):
            raise ValueError(f'Fourier term must be an object with "amp" and "phase", got {term!r}')
        phase = _rational_parts(term.get("phase", "0"))
        parts.append((phase, _rational_parts(_required(term, "amp", "Fourier term"))))
    return _from_parts(parts)


def fourier_from_json(data: dict) -> FourierSum:
    """Load a Fourier sum; repeated modes add up."""
    dim = _json_int(_required(data, "dim", "Fourier sum"), 'Fourier "dim"')
    matrix = [
        [_json_int(entry, 'Fourier "Lambda" cell') for entry in _shaped(row, list, 'Fourier "Lambda" row')]
        for row in _required(data, "Lambda", "Fourier sum", list)
    ]
    parameter = parse_rational(_required(data, "lambda", "Fourier sum"))
    coeffs = {}
    for item in _shaped(data.get("coeffs", []), list, 'Fourier "coeffs"'):
        listed = _required(item, "k", 'Fourier "coeffs" item', list)
        mode = tuple(_json_int(c, 'Fourier mode entry in "k"') for c in listed)
        if len(mode) != dim:  # before a zero value is dropped
            raise ValueError("mode vectors must match the dimension")
        value = _phase_sum_from_json(_shaped(item.get("terms", []), list, 'Fourier "terms"'))
        if value:
            coeffs[mode] = coeffs[mode] + value if mode in coeffs else value
    return FourierSum(dim, matrix, parameter, coeffs)


def disk_to_json(element: DiskElement) -> dict:
    coeffs = []
    for (p, q) in sorted(element.coeffs):
        value = element.coeffs[(p, q)]
        coeffs.append({"p": p, "q": q, **value.to_json()})
    return {"coeffs": coeffs}


def disk_from_json(data: dict) -> DiskElement:
    """Load a disk element; repeated ``(p, q)`` items add up."""
    data = _shaped(data, dict, "disk element")
    coeffs: dict[tuple[int, int], NuRationalFunction] = {}
    for item in _shaped(data.get("coeffs", []), list, 'disk "coeffs"'):
        key = tuple(_json_int(_required(item, index, 'disk "coeffs" item'), f'disk index "{index}"') for index in "pq")
        value = NuRationalFunction.from_json(item)
        coeffs[key] = coeffs[key] + value if key in coeffs else value
    return DiskElement(coeffs)
