"""Exact complex-rational scalars.

All kernel arithmetic runs over the Gaussian rationals Q(i).  The real and
imaginary parts are stdlib :class:`fractions.Fraction` values, which keeps
every number in lowest terms with a positive denominator for free.  No
floating point enters any code path in this package.
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
    "format_rational",
    "parse_rational",
    "to_gauss",
]


_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational_parts(text: str) -> tuple[int, int]:
    """Parse ``"p/q"`` (or ``"p"``) into ints ``(p, q)`` with ``q > 0``, not
    necessarily in lowest terms; anything else is a ValueError.

    This is the one parser of rational text.  The plain ASCII form our
    dumpers write is split directly; every other spelling that ``Fraction``
    reads (padding, a ``+`` sign, decimals, exponents, underscores) goes
    through ``Fraction``, so both accept and refuse the same texts with the
    same messages."""
    if not isinstance(text, str):
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    if _PLAIN_RATIONAL.fullmatch(text):
        num, _, den = text.partition("/")
        p = int(num)
        q = int(den) if den else 1
    else:
        try:
            p, q = Fraction(text.strip()).as_integer_ratio()
        except ZeroDivisionError:
            q = 0
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
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # under 3 bits a digit, a number has fewer digits than the limit
    if limit and value.bit_length() > 3 * limit:
        digits = _decimal_digits(value)
        if digits > limit:
            raise ValueError(f"result has a number of {digits} digits, over the limit of {limit}")


def format_rational(value: RationalLike) -> str:
    """Render a rational as ``p/q``, omitting ``/q`` when the denominator is 1."""
    value = Fraction(value)
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """Render ``num / den`` (``den > 0``) in lowest terms as ``p/q``,
    omitting ``/q`` when it is 1: the one number format of the JSON output.

    A numerator or denominator with more decimal digits than the
    interpreter converts is a ValueError with the digit count."""
    common = gcd(num, den)
    if common != 1:
        num //= common
        den //= common
    _check_digits(num)
    _check_digits(den)
    if den == 1:
        return str(num)
    return f"{num}/{den}"


class GaussRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "GaussRational":
        """Load ``{"re": "p/q", "im": "p/q"}``; bare integers and ``"p/q"``
        strings are accepted as real scalars."""
        if isinstance(data, dict):
            return cls(
                parse_rational(data.get("re", "0")), parse_rational(data.get("im", "0"))
            )
        if isinstance(data, bool):
            raise ValueError(f"scalar cannot be a boolean: {data!r}")
        if isinstance(data, int):
            return cls(Fraction(data))
        if isinstance(data, str):
            return cls(parse_rational(data))
        raise ValueError(
            f'scalar must be an integer, a "p/q" string, or a re/im object, '
            f"got {data!r}"
        )

    # -- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            return GaussRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            return GaussRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, (int, Fraction)):
            return GaussRational(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return GaussRational(self.re / other, self.im / other)
        if isinstance(other, GaussRational):
            norm = other.re * other.re + other.im * other.im
            if not norm:
                raise ZeroDivisionError("division by zero")
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussRational((a * c + b * d) / norm, (b * c - a * d) / norm)
        return NotImplemented

    def __rtruediv__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, (int, Fraction)):
            return GaussRational(other) / self
        return NotImplemented

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


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
    This is the one place where rationals become integer cells: symbol
    tensors and nu-polynomial coefficients both go through it."""
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
    if not out:
        return 1, out
    if common == 1:
        return den, out
    return den // common, {key: (re // common, im // common) for key, (re, im) in out.items()}
