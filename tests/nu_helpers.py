"""Shared builders for the nu-rational tests.

``over_factors`` builds a factored :class:`cpstar.nupoly.NuRationalFunction`
from a polynomial numerator and the ``js`` of its denominator, through the
same integer reduction as every product the library builds.
"""

from typing import Iterable

from cpstar.nupoly import NuPolynomial, NuRationalFunction, _poly_ints


def over_factors(num: NuPolynomial, js: Iterable[int]) -> NuRationalFunction:
    """``num / prod(1 - j nu)`` over a multiset ``js`` of nonzero integers."""
    den, nums = _poly_ints(num.coeffs)
    return NuRationalFunction._from_ints(nums, den, js)
