"""Exact complex-rational scalars.

All kernel arithmetic runs over the Gaussian rationals Q(i).  The real and
imaginary parts are stdlib :class:`fractions.Fraction` values, which keeps
every number in lowest terms with a positive denominator for free.  No
floating point enters any code path in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussRational"]

__all__ = [
    "Fraction",
    "GaussRational",
    "format_rational",
    "parse_rational",
    "to_gauss",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or ``"p"``) into a Fraction; anything else is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Render a rational as ``p/q``, omitting ``/q`` when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
