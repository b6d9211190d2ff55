"""Radial Wick calculus on flat complex space.

The radial coordinate is ``x = sum_i z_i zbar_i``.  Polynomials in ``x``
with polynomial coefficients in the flat deformation parameter (written
``lam`` here, reusing :class:`~cpstar.nupoly.NuPolynomial` with ``lam`` in
the role of the variable) are closed under the Wick product, because

    x * p(x) = x p(x) + lam x p'(x)

for the Wick star of ``x`` with any radial polynomial ``p``.  Iterating the
recurrence gives the star powers ``x ** (star m)``, whose coefficients are
Stirling numbers of the second kind; summing them against ``alpha**m / m!``
yields the star exponential of ``x``, which must match the closed form

    exp((x / lam) (exp(alpha lam) - 1))

order by order in ``alpha``.  This module also carries the scaling operator
that sends ``x**r`` to a product of shifted linear factors, together with
its inverse-branch product form, and the literal Wick product, on
``zpoly.wick_orders``, that checks the recurrence.  A :class:`RadialPolynomial`
is a combination of powers of ``x`` (:mod:`._combination`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from ..nupoly import NU_ONE, NU_ZERO, NuPolynomial
from ..scalars import GaussRational
from ..zpoly import ZPoly, wick_orders
from ._combination import Combination

__all__ = [
    "RadialPolynomial",
    "ScaledMonomial",
    "s_on_monomial",
    "truncated_reciprocal",
    "check_scaling_consistency",
    "wick_star_x",
    "wick_radial_power",
    "wick_product_literal",
    "radial_pullback",
    "validate_radial_recurrence",
    "star_exponential_series",
    "closed_exponential_series",
    "check_star_exponential",
]


def _as_lambda_poly(value) -> NuPolynomial:
    if isinstance(value, NuPolynomial):
        return value
    return NuPolynomial.constant(value)


class RadialPolynomial(Combination):
    """Polynomial in the radial coordinate with lam-polynomial coefficients."""

    __slots__ = ("coeffs",)
    _mismatch = "mismatched radial polynomials"

    def __init__(self, coeffs: Mapping[int, object] | None = None) -> None:
        pairs = []
        for power, value in (coeffs or {}).items():
            if power < 0:
                raise ValueError("radial polynomials have nonnegative powers")
            pairs.append((power, _as_lambda_poly(value)))
        self._assign((), pairs)

    @classmethod
    def zero(cls) -> "RadialPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RadialPolynomial":
        return cls({0: NU_ONE})

    @classmethod
    def x_power(cls, power: int, coeff: object = 1) -> "RadialPolynomial":
        return cls({power: _as_lambda_poly(coeff)})

    def coefficient(self, power: int) -> NuPolynomial:
        return self.coeffs.get(power, NU_ZERO)

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def __mul__(self, other: "RadialPolynomial") -> "RadialPolynomial":
        right = other.coeffs.items()
        return self._built((), ((p + q, a * b) for p, a in self.coeffs.items() for q, b in right))

    def scale(self, factor: object) -> "RadialPolynomial":
        poly = _as_lambda_poly(factor)
        return self._built((), ((p, a * poly) for p, a in self.coeffs.items()))

    def times_x(self) -> "RadialPolynomial":
        return self._built((), ((p + 1, a) for p, a in self.coeffs.items()))

    def times_lambda(self, j: int = 1) -> "RadialPolynomial":
        if j < 0:
            raise ValueError("times_lambda requires a nonnegative exponent")
        return self._built((), ((p, a.shift(j)) for p, a in self.coeffs.items()))

    def derivative(self) -> "RadialPolynomial":
        return self._built((), ((p - 1, a * p) for p, a in self.coeffs.items() if p > 0))

    def at_lambda(self, alpha) -> "RadialPolynomial":
        """Substitute a number for lam, leaving a plain polynomial in x."""
        return self._built((), ((p, NuPolynomial.constant(a.evaluate(alpha))) for p, a in self.coeffs.items()))

    def evaluate(self, x_value, lambda_value) -> GaussRational:
        total = GaussRational(0)
        for power, poly in self.coeffs.items():
            term = poly.evaluate(lambda_value)
            for _ in range(power):
                term = term * x_value
            total = total + term
        return total

    def __repr__(self) -> str:
        return f"RadialPolynomial({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in sorted(self.coeffs):
            poly = str(self.coeffs[power]).replace("nu", "lam")
            if power == 0:
                parts.append(f"({poly})")
            elif power == 1:
                parts.append(f"({poly})*x")
            else:
                parts.append(f"({poly})*x^{power}")
        return " + ".join(parts)


RADIAL_ZERO = RadialPolynomial.zero()
RADIAL_ONE = RadialPolynomial.one()
RADIAL_X = RadialPolynomial.x_power(1)


# -- the scaling operator on monomials --------------------------------


@dataclass(frozen=True)
class ScaledMonomial:
    """Image of a power of x under the radial scaling operator.

    The value is ``x**power`` times a product of factors ``(1 + c lam/x)``
    raised to ``exponent`` in {+1, -1}.  The positive branch expands to an
    honest :class:`RadialPolynomial`; the negative branch is kept as an
    unexpanded product, with a truncated series expansion in ``lam/x`` on
    demand.
    """

    power: int
    factors: tuple[tuple[Fraction, int], ...]

    def expand(self) -> RadialPolynomial:
        if any(exponent != 1 for _, exponent in self.factors):
            raise ValueError("only the positive branch expands to a polynomial")
        if self.power < len(self.factors):
            raise ValueError("expansion would produce negative powers of x")
        # x**power prod (1 + c lam/x) = x**(power - #factors) prod (x + c lam)
        result = RadialPolynomial.x_power(self.power - len(self.factors))
        for c, _ in self.factors:
            linear = RadialPolynomial({1: NU_ONE, 0: NuPolynomial((0, c))})
            result = result * linear
        return result

    def series(self, order: int) -> list[Fraction]:
        """Coefficients of the factor product as a series in t = lam/x."""
        out = [Fraction(1)] + [Fraction(0)] * order
        for c, exponent in self.factors:
            if exponent == 1:
                for j in range(order, 0, -1):
                    out[j] = out[j] + c * out[j - 1]
            else:
                # divide by (1 + c t): s_j = out_j - c s_{j-1}
                series = [Fraction(0)] * (order + 1)
                for j in range(order + 1):
                    series[j] = out[j] - (c * series[j - 1] if j else 0)
                out = series
        return out


def s_on_monomial(r: int, inverse: bool = False) -> ScaledMonomial:
    """Image of ``x**r`` (or ``x**-r`` for the inverse branch) under scaling.

    The positive branch sends ``x**r`` to the product of the shifted
    factors ``(x - lam)(x - 2 lam) ... (x - r lam)`` for ``r >= 2`` while
    fixing ``1`` and ``x``.  The negative branch attaches the reciprocal
    factors ``(1 + k lam/x)**-1`` for ``k = 1..r`` without expanding them.
    """
    if r < 0:
        raise ValueError("s_on_monomial expects a nonnegative power")
    if inverse:
        return ScaledMonomial(
            power=-r,
            factors=tuple((Fraction(k), -1) for k in range(1, r + 1)),
        )
    if r <= 1:
        return ScaledMonomial(power=r, factors=())
    return ScaledMonomial(
        power=r,
        factors=tuple((Fraction(-k), 1) for k in range(1, r + 1)),
    )


def truncated_reciprocal(series: Sequence[Fraction], order: int) -> list[Fraction]:
    """Reciprocal of a power series with unit constant term, mod t**(order+1)."""
    if not series or series[0] != 1:
        raise ValueError("reciprocal requires a unit constant term")
    out = [Fraction(1)] + [Fraction(0)] * order
    for j in range(1, order + 1):
        acc = Fraction(0)
        for m in range(1, j + 1):
            if m < len(series):
                acc += series[m] * out[j - m]
        out[j] = -acc
    return out


def check_scaling_consistency(r: int) -> bool:
    """Expanded image times its formal reciprocal returns x**r mod lam**(r+1)."""
    forward = s_on_monomial(r).series(r)
    backward = truncated_reciprocal(forward, r)
    for j in range(r + 1):
        acc = sum((forward[m] * backward[j - m] for m in range(j + 1)), Fraction(0))
        if acc != (1 if j == 0 else 0):
            return False
    return True


# -- Wick star powers of x --------------------------------------------


def wick_star_x(p: RadialPolynomial) -> RadialPolynomial:
    """Wick star of x with a radial polynomial: x p + lam x p'."""
    return p.times_x() + p.derivative().times_x().times_lambda()


def wick_radial_power(m: int) -> RadialPolynomial:
    """The m-th Wick star power of x, via the first-order recurrence."""
    if m < 0:
        raise ValueError("wick_radial_power expects a nonnegative power")
    result = RADIAL_ONE
    for _ in range(m):
        result = wick_star_x(result)
    return result


def wick_product_literal(left: ZPoly, right: ZPoly) -> ZPoly:
    """Literal Wick product of polynomial functions of z and zbar: the sum
    of ``lam**t / t!`` times order t of :func:`cpstar.zpoly.wick_orders`.
    The coefficients must multiply with lam-polynomials."""
    total = ZPoly(left.n)
    for t, order in enumerate(wick_orders(left, right)):
        weight = Fraction(1, factorial(t))
        total = total + order.map_coefficients(lambda c: _as_lambda_poly(c).shift(t) * weight)
    return total


def radial_pullback(p: RadialPolynomial, coords: int) -> ZPoly:
    """Rewrite a radial polynomial as a polynomial in ``coords`` variables z
    and their conjugates, a ``ZPoly(coords - 1)``."""
    n = coords - 1
    x = ZPoly.zero(n)
    for i in range(coords):
        unit = [0] * coords
        unit[i] = 1
        x = x + ZPoly.monomial(n, tuple(unit), tuple(unit), NU_ONE)
    result = ZPoly.zero(n)
    for power, poly in p.coeffs.items():
        term = ZPoly.monomial(n, (0,) * coords, (0,) * coords, poly)
        for _ in range(power):
            term = term * x
        result = result + term
    return result


def validate_radial_recurrence(max_power: int = 3, coords: int = 2) -> bool:
    """Check the recurrence against the literal bidifferential product.

    Star powers of x computed through ``x p + lam x p'`` must agree with
    the ones obtained by repeated literal Wick multiplication of the
    pulled-back polynomials, for every power up to ``max_power``.
    """
    x = radial_pullback(RADIAL_X, coords)
    literal = radial_pullback(RADIAL_ONE, coords)
    for m in range(1, max_power + 1):
        literal = wick_product_literal(x, literal)
        if literal != radial_pullback(wick_radial_power(m), coords):
            return False
    return True


# -- the star exponential ---------------------------------------------


def _series_product(
    left: Sequence[RadialPolynomial],
    right: Sequence[RadialPolynomial],
    order: int,
) -> list[RadialPolynomial]:
    out = [RADIAL_ZERO] * (order + 1)
    for j, a in enumerate(left):
        if j > order or a.is_zero():
            continue
        for m, b in enumerate(right):
            if j + m > order:
                break
            out[j + m] = out[j + m] + a * b
    return out


def star_exponential_series(order: int) -> list[RadialPolynomial]:
    """alpha-series of the star exponential of x, through the given order."""
    series = []
    power = RADIAL_ONE
    for m in range(order + 1):
        series.append(power.scale(Fraction(1, factorial(m))))
        power = wick_star_x(power)
    return series


def closed_exponential_series(order: int) -> list[RadialPolynomial]:
    """alpha-series of exp((x/lam)(exp(alpha lam) - 1)), through the order.

    The inner series has alpha-coefficients ``x lam**(i-1) / i!`` starting
    at i = 1, so the division by lam is exact; the outer exponential is the
    finite sum of its powers divided by factorials.
    """
    inner = [RADIAL_ZERO] * (order + 1)
    for i in range(1, order + 1):
        inner[i] = RadialPolynomial(
            {1: NuPolynomial.nu_power(i - 1, Fraction(1, factorial(i)))}
        )
    result = [RADIAL_ONE] + [RADIAL_ZERO] * order
    term = [RADIAL_ONE] + [RADIAL_ZERO] * order
    for j in range(1, order + 1):
        term = _series_product(term, inner, order)
        scaled = [p.scale(Fraction(1, factorial(j))) for p in term]
        result = [a + b for a, b in zip(result, scaled)]
    return result


def check_star_exponential(order: int = 8) -> bool:
    """Exact per-order agreement of the two alpha-series in x and lam."""
    return star_exponential_series(order) == closed_exponential_series(order)
