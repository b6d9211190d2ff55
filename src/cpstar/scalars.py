"""Exact complex-rational scalars.

All kernel arithmetic runs over the Gaussian rationals Q(i).  A
:class:`GaussRational` is one Gaussian integer over one denominator,
``(p + q i) / m`` with ``m > 0`` and ``gcd(p, q, m) == 1``: the same
integer form as :class:`~cpstar.symbols.SymbolTensor` cells and factored
:class:`~cpstar.nupoly.NuRationalFunction` values.  Its arithmetic runs on
ints with one gcd per result; the real and imaginary parts are
:class:`fractions.Fraction` views.  No floating point enters any code path
in this package.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussRational"]
Key = TypeVar("Key", bound=Hashable)

__all__ = [
    "Fraction",
    "GaussRational",
    "parse_rational",
    "to_gauss",
]


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_DIGIT_RUN = re.compile(r"[\d_]+")
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(rf"\s*([-+]?)(?=\.?\d)({_DIGITS})?(?:/({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)\s*")
"""The grammar of ``Fraction`` strings in CPython 3.11: a sign, a numerator,
then a denominator or else a decimal part and an exponent, with digits
grouped by single underscores; the groups are those five parts."""


def _digit_limit() -> int:
    """The interpreter's limit on decimal digits in int/str conversions
    (CPython's ``sys.get_int_max_str_digits``); 0 for none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


_MIN_LIMIT = getattr(sys.int_info, "str_digits_check_threshold", 0)
"""The least nonzero digit limit CPython allows: shorter numbers always pass."""
_SAFE_BITS = 3 * _MIN_LIMIT
"""Under 3 bits a digit, an int of at most this many bits passes any limit."""


def _rational_parts(text: str) -> tuple[int, int]:
    """Parse ``"p/q"`` (or ``"p"``) into ints ``(p, q)`` with ``q > 0``, not
    necessarily in lowest terms; anything else is a ValueError.

    This is the one parser of rational text.  The plain ASCII form our
    dumpers write is split directly.  Every other spelling (padding, a
    ``+`` sign, decimals, exponents, underscores) is read by one grammar,
    that of ``Fraction`` in CPython 3.11, on every interpreter, to the
    value in lowest terms; a text outside it is refused with the message
    of that ``Fraction``.  First, a text with a run of more digits than the
    interpreter converts is refused with the digit count; and a decimal is
    refused when its exponent is over that limit in size, before
    ``10**exponent`` is built."""
    if not isinstance(text, str):
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    if len(text) > _MIN_LIMIT:
        limit = _digit_limit()
        digits = max((len(run) - run.count("_") for run in _DIGIT_RUN.findall(text)), default=0)
        if limit and digits > limit:
            raise ValueError(f"rational with a number of {digits} digits, over the limit of {limit}")
    if _PLAIN_RATIONAL.fullmatch(text):
        num, _, den = text.partition("/")
        p = int(num)
        q = int(den) if den else 1
    else:
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text.strip()!r}")
        sign, num, den, decimal, exponent = match.groups()
        p, q = int(num or "0"), int(den or "1")
        if decimal:
            q = 10 ** (len(decimal) - decimal.count("_"))
            p = p * q + int(decimal)
        if exponent:
            exponent, limit = int(exponent), _digit_limit()
            if limit and abs(exponent) > limit:
                raise ValueError(f"rational with a decimal exponent of {exponent}, beyond the limit of {limit}")
            if exponent >= 0:
                p *= 10**exponent
            else:
                q *= 10**-exponent
        if sign == "-":
            p = -p
        common = gcd(p, q)
        if common > 1:
            p, q = p // common, q // common
    if not q:
        raise ValueError(f"zero denominator in rational {text!r}")
    return p, q


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or ``"p"``) into a Fraction; anything else is a ValueError."""
    return Fraction(*_rational_parts(text))


_JSON_KINDS = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _shape_error(value, kind: type, what: str) -> ValueError:
    found = _JSON_KINDS.get(type(value), type(value).__name__)
    return ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {found}")


def _shaped(value, kind: type, what: str):
    """``value``, which ``what`` names, if it is a JSON list or object as
    ``kind`` asks; else a ValueError that says what it is instead."""
    if not isinstance(value, kind):
        raise _shape_error(value, kind, what)
    return value


def _required(data: dict, key: str, what: str, kind: type = object):
    """``data[key]`` of the JSON object ``what``: a ValueError that names
    what is wrong when ``data`` is not an object, lacks ``key``, or holds
    something other than a ``kind`` (a list or an object) there."""
    if not isinstance(data, dict):
        raise _shape_error(data, dict, what)
    if key not in data:
        raise ValueError(f'{what} is missing "{key}"')
    value = data[key]
    if not isinstance(value, kind):
        raise _shape_error(value, kind, f'{what} "{key}"')
    return value


def _decimal_digits(value: int) -> int:
    """The number of decimal digits of ``abs(value)`` (0 has one), from its
    bit length: ``10**(d - 1) <= 2**(bits - 1)`` for the first guess ``d``,
    as 0.301029995 is below log10(2)."""
    value = abs(value)
    digits = (max(value.bit_length(), 1) - 1) * 301029995 // 10**9 + 1
    power = 10**digits
    while value >= power:
        digits += 1
        power *= 10
    return digits


def _check_digits(value: int) -> None:
    """Refuse an int that ``str()`` would not convert under the
    interpreter's digit limit (CPython's ``sys.get_int_max_str_digits``)."""
    limit = _digit_limit()
    # under 3 bits a digit, a number has fewer digits than the limit
    if limit and value.bit_length() > 3 * limit:
        digits = _decimal_digits(value)
        if digits > limit:
            raise ValueError(f"result has a number of {digits} digits, over the limit of {limit}")


def _format_ratio(num: int, den: int) -> str:
    """Render ``num / den`` (``den > 0``) in lowest terms as ``p/q``,
    omitting ``/q`` when it is 1: the one number format of the JSON output.

    A numerator or denominator with more decimal digits than the
    interpreter converts is a ValueError with the digit count."""
    common = gcd(num, den)
    if common != 1:
        num //= common
        den //= common
    if num.bit_length() > _SAFE_BITS or den.bit_length() > _SAFE_BITS:
        _check_digits(num)
        _check_digits(den)
    if den == 1:
        return str(num)
    return f"{num}/{den}"


class GaussRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as one reduced Gaussian-integer form ``(p, q, m)``: the value is
    ``(p + q i) / m`` with ``m > 0`` and ``gcd(p, q, m) == 1``, and zero is
    ``(0, 0, 1)``.  ``re`` and ``im`` are :class:`Fraction` views.  A
    ``float`` or ``complex`` part is a ``TypeError``: a binary float is not
    the exact value it was typed as (``0.1`` is over ``2**55``)."""

    __slots__ = ("_form",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        if type(re) is int and type(im) is int:
            _set_form(self, (re, im, 1))
            return
        for part in (re, im):
            if isinstance(part, (float, complex)):
                raise TypeError(f"exact scalar parts cannot be {type(part).__name__}: {part!r}")
        a, b = (re, 1) if type(re) is int else _ratio(re)
        c, d = (im, 1) if type(im) is int else _ratio(im)
        if b == d:
            _set_form(self, (a, c, b))
        else:
            # a/b and c/d are in lowest terms, so gcd(p, q, m) == 1 already
            m = lcm(b, d)
            _set_form(self, (a * (m // b), c * (m // d), m))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "GaussRational":
        """Load ``{"re": "p/q", "im": "p/q"}``; bare integers and ``"p/q"``
        strings are accepted as real scalars."""
        if isinstance(data, dict):
            a, b = _rational_parts(data.get("re", "0"))
            c, d = _rational_parts(data.get("im", "0"))
            return _gauss(a * d, c * b, b * d)
        if isinstance(data, bool):
            raise ValueError(f"scalar cannot be a boolean: {data!r}")
        if isinstance(data, int):
            return _trusted(data, 0, 1)
        if isinstance(data, str):
            p, m = _rational_parts(data)
            return _gauss(p, 0, m)
        raise ValueError(
            f'scalar must be an integer, a "p/q" string, or a re/im object, '
            f"got {data!r}"
        )

    def _ints(self) -> tuple[int, int, int]:
        """The stored form ``(p, q, m)`` of ``(p + q i) / m``."""
        return self._form

    # -- views --------------------------------------------------------

    @property
    def re(self) -> Fraction:
        p, _, m = self._form
        return Fraction(p) if m == 1 else Fraction(p, m)

    @property
    def im(self) -> Fraction:
        _, q, m = self._form
        return Fraction(q) if m == 1 else Fraction(q, m)

    # -- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        p, q, _ = self._form
        return bool(p or q)

    @property
    def is_real(self) -> bool:
        return not self._form[1]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            return _sum(self._form, other._form)
        if isinstance(other, (int, Fraction)):
            return _sum(self._form, (other.numerator, 0, other.denominator))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            c, d, n = other._form
            return _sum(self._form, (-c, -d, n))
        if isinstance(other, (int, Fraction)):
            return _sum(self._form, (-other.numerator, 0, other.denominator))
        return NotImplemented

    def __rsub__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, (int, Fraction)):
            a, b, m = self._form
            return _sum((-a, -b, m), (other.numerator, 0, other.denominator))
        return NotImplemented

    def __neg__(self) -> "GaussRational":
        a, b, m = self._form
        return _trusted(-a, -b, m)

    def __mul__(self, other: ScalarLike) -> "GaussRational":
        a, b, m = self._form
        if isinstance(other, GaussRational):
            c, d, n = other._form
            return _gauss(a * c - b * d, a * d + b * c, m * n)
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return _gauss(a * c, b * c, m * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussRational":
        a, b, m = self._form
        if isinstance(other, GaussRational):
            c, d, n = other._form
            norm = c * c + d * d
            if not norm:
                raise ZeroDivisionError("division by zero")
            # (a + b i)/m * n/(c + d i) = n (a + b i)(c - d i) / (m (c^2 + d^2))
            return _gauss(n * (a * c + b * d), n * (b * c - a * d), m * norm)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            n = other.denominator
            return _gauss(a * n, b * n, m * other.numerator)
        return NotImplemented

    def __rtruediv__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, (int, Fraction)):
            return GaussRational(other) / self
        return NotImplemented

    def conjugate(self) -> "GaussRational":
        a, b, m = self._form
        return _trusted(a, -b, m)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussRational):
            return self._form == other._form
        if isinstance(other, (int, Fraction)):
            a, b, m = self._form
            return not b and a == other.numerator and m == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if not self._form[1]:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        a, b, m = self._form
        if not b:
            return _format_ratio(a, m)
        if not a:
            return f"{_format_ratio(b, m)}*i"
        sign = "+" if b > 0 else "-"
        return f"{_format_ratio(a, m)}{sign}{_format_ratio(abs(b), m)}*i"

    def to_json(self) -> dict:
        a, b, m = self._form
        return {"re": _format_ratio(a, m), "im": _format_ratio(b, m)}


_new = object.__new__
_set_form = GaussRational._form.__set__


def _ratio(value: RationalLike) -> tuple[int, int]:
    """``value`` (anything :class:`Fraction` reads) as a reduced ``(p, q)``."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def _trusted(p: int, q: int, m: int) -> GaussRational:
    """The scalar whose form ``(p, q, m)`` is already reduced."""
    value = _new(GaussRational)
    _set_form(value, (p, q, m))
    return value


def _gauss(p: int, q: int, m: int) -> GaussRational:
    """``(p + q i) / m`` for any nonzero ``m``: the one normalising
    constructor, with one gcd (none when ``m`` is 1)."""
    if m < 0:
        p, q, m = -p, -q, -m
    if m != 1:
        common = gcd(p, q, m)
        if common != 1:
            p, q, m = p // common, q // common, m // common
    return _trusted(p, q, m)


def _sum(x: tuple[int, int, int], y: tuple[int, int, int]) -> GaussRational:
    """``x + y`` of two reduced forms over ``lcm(m, n)``, by Henrici's
    gcd-first step as in ``Fraction``: with ``g = gcd(m, n)`` only a factor
    of ``g`` can cancel, so coprime denominators need no second gcd."""
    a, b, m = x
    c, d, n = y
    if m == n == 1:
        return _trusted(a + c, b + d, 1)
    g = gcd(m, n)
    if g == 1:
        return _trusted(a * n + c * m, b * n + d * m, m * n)
    s = m // g
    t = n // g
    p = a * t + c * s
    q = b * t + d * s
    common = gcd(p, q, g)
    if common == 1:
        return _trusted(p, q, s * n)
    return _trusted(p // common, q // common, s * (n // common))


GAUSS_ZERO = GaussRational(0)
GAUSS_ONE = GaussRational(1)
GAUSS_I = GaussRational(0, 1)


def to_gauss(value: ScalarLike) -> GaussRational:
    """Coerce an int/Fraction/GaussRational into a GaussRational."""
    if isinstance(value, GaussRational):
        return value
    return GaussRational(value)


def _over_lcm(parts: Mapping[Key, tuple[int, int, int, int, int]]) -> tuple[int, dict[Key, tuple[int, int]]]:
    """Gaussian rationals as Gaussian integers over one least denominator.

    ``parts`` maps keys to nonzero weighted values ``w * (a/b + c/d i)``,
    given as ``(a, b, c, d, w)``; the result is ``(den, cells)`` with each
    value equal to ``cells[key] / den``, normalised as by :func:`_normalised`.
    Nu-polynomial coefficients and symbol tensors read from a ``ZPoly`` go
    through it; the public symbol constructor and the JSON loader clear
    their rationals in ``symbols._checked_cells``, which also adds up
    entries at one sorted pair."""
    den = lcm(*(b for _, b, _, _, _ in parts.values()), *(d for _, _, _, d, _ in parts.values()))
    if den == 1:  # integral and nonzero already
        return 1, {key: (a * w, c * w) for key, (a, _, c, _, w) in parts.items()}
    cells = {}
    for key, (a, b, c, d, w) in parts.items():
        w *= den
        cells[key] = (a * (w // b), c * (w // d))
    return _normalised(den, cells)


def _normalised(den: int, cells: Mapping[Key, Sequence[int]]) -> tuple[int, dict[Key, tuple[int, int]]]:
    """The same cells without zeros, over the least denominator: ``den`` and
    every part divided by their gcd.  No cells get denominator 1."""
    out = {}
    common = den
    for key, (re, im) in cells.items():
        if re or im:
            out[key] = (re, im)
            if common != 1:
                common = gcd(common, re, im)
    return _divided_out(den, common, out)


def _divided_out(den: int, common: int, cells: dict[Key, tuple[int, int]]) -> tuple[int, dict[Key, tuple[int, int]]]:
    """``(den, cells)`` of nonzero cells over ``den`` with ``common``, the
    gcd of ``den`` and every part, divided out; an empty map gets
    denominator 1."""
    if not cells:
        return 1, cells
    if common == 1:
        return den, cells
    return den // common, {key: (re // common, im // common) for key, (re, im) in cells.items()}
