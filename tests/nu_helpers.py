"""Shared builders and oracles for the nu-rational tests.

``over_factors`` builds a :class:`cpstar.nupoly.NuRationalFunction` from a
polynomial numerator and the ``js`` of its denominator, through the same
integer reduction as every product the library builds.

The rest is the Euclidean reduction, the oracle that the library's
factored results are compared against: polynomial division and a gcd over
Q(i), and :class:`Euclid`, ``num / den`` in lowest terms with a monic
``den``, for any denominator.
"""

from typing import Iterable, NamedTuple

from cpstar.nupoly import NU_ONE, NU_ZERO, NuPolynomial, NuRationalFunction, _linear_ints, _poly_ints
from cpstar.scalars import GAUSS_ONE, GAUSS_ZERO


def over_factors(num: NuPolynomial, js: Iterable[int]) -> NuRationalFunction:
    """``num / prod(1 - j nu)`` over a multiset ``js`` of nonzero integers."""
    den, nums = _poly_ints(num.coeffs)
    return NuRationalFunction._from_ints(nums, den, js)


def linear(j: int) -> NuPolynomial:
    return NuPolynomial((1, -j))  # 1 - j nu


def expanded(js: Iterable[int]) -> NuPolynomial:
    """The product of ``1 - j nu`` over ``js``, one polynomial product at a time."""
    out = NU_ONE
    for j in js:
        out = out * linear(j)
    return out


def poly_divmod(a: NuPolynomial, b: NuPolynomial) -> tuple[NuPolynomial, NuPolynomial]:
    """Quotient and remainder of long division over Q(i)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(a.coeffs)
    divisor = b.coeffs
    lead_inv = GAUSS_ONE / divisor[-1]
    quotient = [GAUSS_ZERO] * max(0, len(remainder) - len(divisor) + 1)
    for j in range(len(remainder) - len(divisor), -1, -1):
        factor = remainder[j + len(divisor) - 1] * lead_inv
        if factor:
            quotient[j] = factor
            for m, d in enumerate(divisor):
                remainder[j + m] = remainder[j + m] - factor * d
    return NuPolynomial(quotient), NuPolynomial(remainder)


def poly_gcd(a: NuPolynomial, b: NuPolynomial) -> NuPolynomial:
    """The monic gcd by Euclid's algorithm; zero when both are."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


class Euclid(NamedTuple):
    """``num / den`` in lowest terms with a monic ``den``; zero is ``0 / 1``."""

    num: NuPolynomial
    den: NuPolynomial


def euclid(num: NuPolynomial, den: NuPolynomial) -> Euclid:
    """``num / den`` reduced by a Euclidean gcd over Q(i), never factored."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return Euclid(NU_ZERO, NU_ONE)
    common = poly_gcd(num, den)
    num, den = poly_divmod(num, common)[0], poly_divmod(den, common)[0]
    inv = GAUSS_ONE / den.coeffs[-1]
    return Euclid(num * inv, den * inv)


def euclid_sum(a, b) -> Euclid:
    """The sum of two values with ``num`` and ``den``, by Euclid."""
    return euclid(a.num * b.den + b.num * a.den, a.den * b.den)


def euclid_product(a, b) -> Euclid:
    """The product of two values with ``num`` and ``den``, by Euclid."""
    return euclid(a.num * b.num, a.den * b.den)


def numerator_over(value, js: Iterable[int]) -> NuPolynomial:
    """The ``N`` with ``value == N / prod(1 - j nu)`` over the multiset
    ``js``, by long division; ``ValueError`` unless that product is a
    multiple of ``value.den``."""
    js = tuple(sorted(js))
    quotient, remainder = poly_divmod(NuPolynomial(_linear_ints(js)), value.den)
    if remainder:
        raise ValueError(f"{value.den} does not divide the product of 1 - j nu over {js}")
    return value.num * quotient
