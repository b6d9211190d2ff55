"""Component-basis folds against the raw-series oracle.

``minimized``, ``quotient_map`` and ``ideal_factorize`` work directly on the
components of a filtered element.  Each is compared here with the plain
nu-series view of the same element: ``expand`` followed by
``extract_structure``, substitution, and multiplication by ``(nu - alpha)``
through ``times_nupoly``.
"""

import random
from fractions import Fraction

import pytest

from cpstar.nupoly import NuPolynomial
from cpstar.quotient import (
    NotInIdealError,
    ideal_factorize,
    ideal_member,
    quotient_map,
    representative_element,
    substitute,
)
from cpstar.randgen import random_element, random_symbol
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, extract_structure
from cpstar.symbols import embed

# (n, level, extra levels added by relevel); every element stays at level <= 5
SHAPES = [(1, 0, 2), (1, 1, 2), (1, 2, 3), (1, 3, 2), (1, 5, 0), (2, 1, 2), (2, 2, 1), (2, 3, 0)]


def _elements(seed):
    """Seeded irreducible elements and relevelled copies of them."""
    rng = random.Random(seed)
    out = []
    for n, level, extra in SHAPES:
        element = random_element(rng, n, level, density=0.5)
        out.append(element)
        if extra:
            out.append(element.relevel(level + extra))
    return out


def _least_level_oracle(element):
    series = element.expand()
    for level in range(element.level + 1):
        candidate = extract_structure(series, level)
        if candidate is not None:
            return candidate
    raise AssertionError("an element always lies at its own level")


def _times_nu_minus_alpha(element, alpha):
    return element.nu_shift(1) - element.relevel(element.level + 1).scale(GaussRational(alpha))


def _check_factorization(member, alpha):
    factors = ideal_factorize(member, alpha)
    level = member.level
    linear = NuPolynomial((GaussRational(-alpha), GaussRational(1)))
    rebuilt = factors.head.expand() + factors.cofactor.relevel(level).expand().times_nupoly(linear)
    assert rebuilt == member.expand()
    assert factors.reconstruction() == member
    return factors


@pytest.mark.parametrize("seed", [0, 1])
def test_minimized_matches_series_extraction(seed):
    for element in _elements(seed):
        minimal = element.minimized()
        assert minimal == _least_level_oracle(element)
        assert minimal.relevel(element.level) == element


def test_minimized_of_zero_and_unit():
    assert StarElement(2, 4).minimized() == StarElement.zero(2)
    assert StarElement.unit(1).relevel(3).minimized() == StarElement.unit(1)


@pytest.mark.parametrize("seed", [2, 3])
def test_quotient_map_matches_substitution(seed):
    for element in _elements(seed):
        for K in sorted({1, 2, 3, max(element.level, 1), element.level + 1}):
            value = substitute(element, Fraction(1, K))
            assert quotient_map(element, K).tensor == embed(value, K - value.k)


@pytest.mark.parametrize("seed", [4, 5])
def test_ideal_factorize_reciprocal_matches_series(seed):
    for element in _elements(seed):
        for K in sorted({1, 2, max(element.level, 1), element.level + 1}):
            member = element - representative_element(quotient_map(element, K))
            factors = _check_factorization(member, Fraction(1, K))
            assert all(r > K for r in factors.head.components)


@pytest.mark.parametrize("alpha", [Fraction(2, 7), Fraction(-3, 5), Fraction(1, 6)])
def test_ideal_factorize_generic_matches_series(alpha):
    for element in _elements(6):
        factors = _check_factorization(_times_nu_minus_alpha(element, alpha), alpha)
        assert factors.head.is_zero()
        assert factors.cofactor == element


def test_ideal_factorize_head_only_has_zero_cofactor():
    rng = random.Random(7)
    for n, K in [(1, 1), (1, 2), (2, 2)]:
        element = StarElement.lift(random_symbol(rng, n, K + 1, density=0.8))
        factors = ideal_factorize(element, Fraction(1, K))
        assert factors.head == element
        assert factors.cofactor == StarElement.zero(n)


def test_ideal_factorize_rejects_exactly_the_non_members():
    for element in _elements(8):
        for K in (1, 2):
            member = element - representative_element(quotient_map(element, K))
            for candidate in (element, member, member + StarElement.unit(element.n)):
                for alpha in (Fraction(1, K), Fraction(2, 7)):
                    if ideal_member(candidate, alpha):
                        _check_factorization(candidate, alpha)
                    else:
                        with pytest.raises(NotInIdealError):
                            ideal_factorize(candidate, alpha)
