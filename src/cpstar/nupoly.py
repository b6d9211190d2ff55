"""Polynomials and rational functions in the formal deformation parameter.

The deformation parameter is written ``nu`` throughout.  Coefficients are
Gaussian rationals; polynomials store a coefficient tuple with the lowest
degree first and no trailing zeros.  Rational functions keep numerator and
denominator coprime with a monic denominator, so structural equality is
semantic equality.

Every denominator the star products build is a product of linear factors
``1 - j nu`` (see :func:`cpstar.star._star_coefficient` and
:func:`cpstar.models.disk.disk_basis_coefficient`).  A rational function
built from such factors (:meth:`NuRationalFunction.over_factors`) carries
them, and its sums and products cancel by synthetic division at the known
roots ``1/j``.  A Euclidean gcd runs only for generic denominators, such as
those read from JSON.

The central special family is the nu-Pochhammer product

    nu^(0) = nu^(1) = 1,     nu^(k) = (1 - nu)(1 - 2 nu) ... (1 - (k-1) nu)

with the recurrence ``nu^(k+1) = (1 - k nu) nu^(k)``; evaluated at ``1/K``
it vanishes exactly when ``k >= K + 1``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence, Union

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational, ScalarLike, to_gauss

__all__ = [
    "NuPolynomial",
    "NuRationalFunction",
    "nu_pochhammer",
]


class NuPolynomial:
    """Dense univariate polynomial in ``nu`` over the Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()) -> None:
        normalized = [to_gauss(c) for c in coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NuPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: ScalarLike) -> "NuPolynomial":
        return cls((to_gauss(value),))

    @classmethod
    def nu_power(cls, j: int, scale: ScalarLike = 1) -> "NuPolynomial":
        if j < 0:
            raise ValueError("nu_power requires a nonnegative exponent")
        return cls((GAUSS_ZERO,) * j + (to_gauss(scale),))

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "NuPolynomial":
        return cls(GaussRational.from_json(entry) for entry in data)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, j: int) -> GaussRational:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return GAUSS_ZERO

    def leading(self) -> GaussRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NuPolynomial") -> "NuPolynomial":
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return NuPolynomial(out)

    def __sub__(self, other: "NuPolynomial") -> "NuPolynomial":
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NuPolynomial":
        return NuPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: Union["NuPolynomial", ScalarLike]) -> "NuPolynomial":
        if isinstance(other, NuPolynomial):
            if not self.coeffs or not other.coeffs:
                return NU_ZERO
            out = [GAUSS_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for j, a in enumerate(self.coeffs):
                if not a:
                    continue
                for m, b in enumerate(other.coeffs):
                    if b:
                        out[j + m] = out[j + m] + a * b
            return NuPolynomial(out)
        if isinstance(other, (int, Fraction, GaussRational)):
            return NuPolynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, j: int) -> "NuPolynomial":
        """Multiply by ``nu**j``."""
        if not self.coeffs:
            return self
        return NuPolynomial((GAUSS_ZERO,) * j + self.coeffs)

    def __divmod__(self, other: "NuPolynomial") -> tuple["NuPolynomial", "NuPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        divisor = other.coeffs
        lead_inv = GAUSS_ONE / divisor[-1]
        quotient = [GAUSS_ZERO] * max(0, len(remainder) - len(divisor) + 1)
        for j in range(len(remainder) - len(divisor), -1, -1):
            factor = remainder[j + len(divisor) - 1] * lead_inv
            if factor:
                quotient[j] = factor
                for m, d in enumerate(divisor):
                    remainder[j + m] = remainder[j + m] - factor * d
        return NuPolynomial(quotient), NuPolynomial(remainder)

    def evaluate(self, alpha: ScalarLike) -> GaussRational:
        """Horner evaluation at an exact scalar."""
        alpha = to_gauss(alpha)
        acc = GAUSS_ZERO
        for c in reversed(self.coeffs):
            acc = acc * alpha + c
        return acc

    def monic(self) -> "NuPolynomial":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == GAUSS_ONE:
            return self
        return self * (GAUSS_ONE / lead)

    # -- comparison / rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NuPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussRational)):
            if not to_gauss(other):
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"NuPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"({c})*nu")
            else:
                parts.append(f"({c})*nu^{j}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]


NU_ZERO = NuPolynomial()
NU_ONE = NuPolynomial((GAUSS_ONE,))
NU = NuPolynomial((GAUSS_ZERO, GAUSS_ONE))


@lru_cache(maxsize=None)
def nu_pochhammer(k: int) -> NuPolynomial:
    """The product ``(1 - nu)(1 - 2 nu) ... (1 - (k-1) nu)``, empty for k in {0, 1}."""
    if k < 0:
        raise ValueError("nu_pochhammer requires k >= 0")
    if k <= 1:
        return NU_ONE
    return nu_pochhammer(k - 1) * NuPolynomial((GAUSS_ONE, GaussRational(-(k - 1))))


def _poly_gcd(a: NuPolynomial, b: NuPolynomial) -> NuPolynomial:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.monic()


@lru_cache(maxsize=1024)
def _linear_product(js: tuple[int, ...]) -> NuPolynomial:
    """The product of ``1 - j nu`` over the multiset ``js``."""
    out = NU_ONE
    for j in js:
        out = out * NuPolynomial((GAUSS_ONE, GaussRational(-j)))
    return out


@lru_cache(maxsize=1024)
def _monic_product(js: tuple[int, ...]) -> NuPolynomial:
    """The product of ``nu - 1/j`` over ``js``: ``_linear_product(js)`` made monic."""
    return _linear_product(js).monic()


def _divide_root(coeffs: tuple[GaussRational, ...], root: Fraction):
    """Synthetic division by ``nu - root``: the quotient's coefficients and the remainder."""
    quotient = [GAUSS_ZERO] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        quotient[m] = acc
        acc = coeffs[m] + acc * root
    return quotient, acc


def _cancel_roots(num: NuPolynomial, js: tuple[int, ...]) -> tuple[NuPolynomial, tuple[int, ...]]:
    """Divide ``num`` by each ``nu - 1/j`` it vanishes on; ``js`` sorted, ``num`` nonzero.

    Returns the quotient and the factors that stay in the denominator.
    """
    coeffs = num.coeffs
    kept: list[int] = []
    for j in js:
        if kept and kept[-1] == j:  # num does not vanish at 1/j: no copy of j cancels
            kept.append(j)
            continue
        quotient, remainder = _divide_root(coeffs, Fraction(1, j))
        if remainder:
            kept.append(j)
        else:
            coeffs = quotient
    if len(kept) < len(js):
        num = NuPolynomial(coeffs)
    return num, tuple(kept)


def _multiset_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((Counter(a) | Counter(b)).elements()))


def _multiset_minus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((Counter(a) - Counter(b)).elements()))


class NuRationalFunction:
    """Quotient of two nu-polynomials in lowest terms with a monic denominator.

    ``js`` records the denominator's linear factors when they are known: a
    sorted tuple of nonzero integers with ``den == prod(nu - 1/j)``, which is
    ``prod(1 - j nu)`` made monic (``()`` for the denominator 1).  It is
    ``None`` for a denominator that was never factored, such as one read from
    JSON.  Sums and products of two factored operands cancel by synthetic
    division at the roots ``1/j``; any other operand goes through a Euclidean
    gcd over Q(i).  Both routes give the same canonical ``num`` and ``den``.
    """

    __slots__ = ("num", "den", "js")

    def __init__(
        self, num: NuPolynomial, den: Union[NuPolynomial, tuple[int, ...]] = NU_ONE
    ) -> None:
        """``num / den``; ``den`` is a polynomial, or a sorted tuple of nonzero
        integers ``js`` that stands for the monic ``prod(nu - 1/j)``."""
        if isinstance(den, NuPolynomial) and den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den, js = NU_ZERO, NU_ONE, ()
        elif isinstance(den, tuple):
            num, js = _cancel_roots(num, den)
            den = _monic_product(js)
        else:
            if den.degree > 0:
                common = _poly_gcd(num, den)
                if common.degree > 0:
                    num = divmod(num, common)[0]
                    den = divmod(den, common)[0]
            lead = den.leading()
            if lead != GAUSS_ONE:
                inv = GAUSS_ONE / lead
                num = num * inv
                den = den * inv
            js = () if den.degree == 0 else None
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "js", js)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NuRationalFunction is immutable")

    @classmethod
    def constant(cls, value: ScalarLike) -> "NuRationalFunction":
        return cls(NuPolynomial.constant(value))

    @classmethod
    def over_factors(cls, num: NuPolynomial, js: Iterable[int]) -> "NuRationalFunction":
        """``num / prod(1 - j nu)`` over a multiset ``js`` of nonzero integers."""
        js = tuple(sorted(js))
        lead = prod(-j for j in js)  # the leading coefficient of prod(1 - j nu)
        return cls(num * Fraction(1, lead), js)

    @classmethod
    def from_json(cls, data: dict) -> "NuRationalFunction":
        num, den = NuPolynomial.from_json(data["num"]), NuPolynomial.from_json(data["den"])
        if den.is_zero():
            raise ValueError("rational function with zero denominator")
        return cls(num, den)

    def numerator_over(self, js: Iterable[int]) -> NuPolynomial:
        """The ``N`` with ``self == over_factors(N, js)``.

        ``prod(1 - j nu)`` over ``js`` must be a multiple of ``self.den``.
        """
        js = tuple(sorted(js))
        quotient, remainder = divmod(_linear_product(js), self.den)
        if remainder:
            raise ValueError(f"{self.den} does not divide the product of 1 - j nu over {js}")
        return self.num * quotient

    @property
    def _denominator(self) -> Union[NuPolynomial, tuple[int, ...]]:
        """The denominator as the constructor takes it, factored when known."""
        return self.den if self.js is None else self.js

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        if not isinstance(other, NuRationalFunction):
            return NotImplemented
        if self.js is None or other.js is None:
            return NuRationalFunction(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        if not other.num:
            return self
        if not self.num:
            return other
        if self.js == other.js:
            return NuRationalFunction(self.num + other.num, self.js)
        js = _multiset_lcm(self.js, other.js)
        return NuRationalFunction(
            self.num * _monic_product(_multiset_minus(js, self.js))
            + other.num * _monic_product(_multiset_minus(js, other.js)),
            js,
        )

    def __sub__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        if not isinstance(other, NuRationalFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NuRationalFunction":
        return NuRationalFunction(-self.num, self._denominator)

    def __mul__(self, other: Union["NuRationalFunction", NuPolynomial, ScalarLike]) -> "NuRationalFunction":
        if isinstance(other, NuRationalFunction):
            if self.js is None or other.js is None:
                return NuRationalFunction(self.num * other.num, self.den * other.den)
            return NuRationalFunction(self.num * other.num, tuple(sorted(self.js + other.js)))
        if isinstance(other, (NuPolynomial, int, Fraction, GaussRational)):
            return NuRationalFunction(self.num * other, self._denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        if isinstance(other, NuRationalFunction):
            if other.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            return NuRationalFunction(self.num * other.den, self.den * other.num)
        return NotImplemented

    def evaluate(self, alpha: ScalarLike) -> GaussRational:
        den_value = self.den.evaluate(alpha)
        if not den_value:
            raise ZeroDivisionError(f"denominator vanishes at nu = {alpha}")
        return self.num.evaluate(alpha) / den_value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NuRationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (NuPolynomial, int, Fraction, GaussRational)):
            return self.den == NU_ONE and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"NuRationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == NU_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


NRF_ZERO = NuRationalFunction(NU_ZERO)
NRF_ONE = NuRationalFunction(NU_ONE)
