"""Component-basis folds against the raw-series oracle.

``minimized``, ``quotient_map`` and ``ideal_factorize`` work directly on the
components of a filtered element.  Each is compared here with the plain
nu-series view of the same element: ``expand`` followed by
``extract_structure``, substitution, and multiplication by ``(nu - alpha)``
through ``times_nupoly`` of ``test_linear_oracles``.  ``relevel``, which
raises the level in one pass, is compared with the one-level-at-a-time
recurrence it replaced.
"""

import random
from fractions import Fraction

import pytest

from cpstar.multiindex import sorted_tuples
from cpstar.nupoly import NuPolynomial, nu_pochhammer
from cpstar.quotient import (
    NotInIdealError,
    _weighted_sum,
    ideal_factorize,
    quotient_map,
    representative_element,
    substitute,
)
from cpstar.randgen import random_element, random_symbol
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, extract_structure
from cpstar.symbols import SymbolTensor, embed, identity_symbol

from test_linear_oracles import times_nupoly

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
    rebuilt = factors.head.expand() + times_nupoly(factors.cofactor.relevel(level).expand(), linear)
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
                    if substitute(candidate, alpha).is_zero():
                        _check_factorization(candidate, alpha)
                    else:
                        with pytest.raises(NotInIdealError):
                            ideal_factorize(candidate, alpha)


# denominators of the real and imaginary parts, one pair of prime sets per
# component degree, so every component has its own common denominator
_PRIMES = [((1, 2), (1, 3)), ((1, 5), (1, 7)), ((1, 11), (1, 2)), ((1, 13), (1, 3)), ((1, 17), (1, 5))]


def _fraction_element(rng, n, level, gaps=()):
    """Components with complex parts over distinct prime denominators; the
    degrees in ``gaps`` are left out."""
    components = {}
    for r in range(level + 1):
        if r in gaps:
            continue
        re_primes, im_primes = _PRIMES[r]
        slots = [(i, j) for i in sorted_tuples(n, r) for j in sorted_tuples(n, r)]
        components[r] = SymbolTensor(n, r, {
            key: GaussRational(
                Fraction(rng.choice([-3, -1, 1, 2]), rng.choice(re_primes)),
                Fraction(rng.randint(-2, 2), rng.choice(im_primes)),
            )
            for key in rng.sample(slots, min(4, len(slots)))
        })
    return StarElement(n, level, components)


def relevel_stepwise(element, new_level):
    """``relevel`` one level at a time: each step sends phi_r to x phi_r at
    degree r + 1 plus r phi_r at degree r, with public tensor arithmetic."""
    current = element
    while current.level < new_level:
        out = {}
        for r, tensor in current.components.items():
            pieces = [(r + 1, embed(tensor))]
            if r:
                pieces.append((r, tensor.scale(r)))
            for index, piece in pieces:
                out[index] = out[index] + piece if index in out else piece
        current = StarElement(current.n, current.level + 1, {r: t for r, t in out.items() if not t.is_zero()})
    return current


@pytest.mark.parametrize("seed", [44, 45])
def test_relevel_matches_stepwise_recurrence(seed):
    rng = random.Random(seed)
    shapes = [(1, 3, ()), (1, 2, (1,)), (2, 3, (0, 2)), (2, 1, ()), (3, 2, (0,)), (3, 3, ())]
    cases = [_fraction_element(rng, n, level, gaps) for n, level, gaps in shapes]
    cases += [random_element(rng, n, 2) for n in (1, 2, 3)]
    cases += [StarElement.zero(2), StarElement(1, 3), StarElement.unit(3)]
    for element in cases:
        for extra in range(5):
            new_level = element.level + extra
            assert element.relevel(new_level) == relevel_stepwise(element, new_level), (element, extra)
    # phi_r and its x-multiples cancel across degrees: a relevelled
    # difference of two levels of one element is zero
    element = cases[0]
    assert (element.relevel(6) - element.relevel(4)).relevel(6).is_zero()


def test_relevel_of_the_unit_has_stirling_components():
    stirling = {1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 3, 1], 4: [0, 1, 7, 6, 1]}
    for n in (1, 2):
        for m, row in stirling.items():
            expected = {j: identity_symbol(n, j).scale(c) for j, c in enumerate(row) if c}
            assert StarElement.unit(n).relevel(m) == StarElement(n, m, expected)


def _naive_weighted_sum(element, alpha, degree=None):
    """sum_r nu^(r)(alpha) alpha^(level-r) embed(phi_r, degree - r), one
    component at a time with public tensor arithmetic."""
    weights = {}
    for r in element.components:
        weight = nu_pochhammer(r).evaluate(alpha) * alpha ** (element.level - r)
        if weight:
            weights[r] = weight
    if degree is None:
        degree = max(weights, default=0)
    total = SymbolTensor.zero(element.n, degree)
    for r, weight in weights.items():
        total = total + embed(element.components[r], degree - r).scale(weight)
    return total


_ALPHAS = [Fraction(2, 7), Fraction(-3, 5), Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2)]


def _weighted_sum_cases(seed):
    rng = random.Random(seed)
    for n, level, gaps in [(1, 3, ()), (1, 4, (1, 2)), (2, 3, (1,)), (2, 2, (0,)), (3, 2, (1,)), (1, 4, (0, 3))]:
        yield _fraction_element(rng, n, level, gaps)
    yield StarElement.zero(2)
    yield StarElement(1, 4)


@pytest.mark.parametrize("seed", [40, 41])
def test_weighted_sum_matches_naive_sum(seed):
    for element in _weighted_sum_cases(seed):
        for alpha in _ALPHAS:
            assert _weighted_sum(element, alpha) == _naive_weighted_sum(element, alpha), (element, alpha)
        for K in range(1, element.level + 3):
            expected = _naive_weighted_sum(element, Fraction(1, K), K)
            assert _weighted_sum(element, Fraction(1, K), K) == expected, (element, K)


@pytest.mark.parametrize("seed", [42, 43])
def test_weighted_sum_of_members_cancels_to_zero(seed):
    for element in _weighted_sum_cases(seed):
        n = element.n
        for K in (1, 2, 3):
            member = element - representative_element(quotient_map(element, K))
            value = _weighted_sum(member, Fraction(1, K), K)
            assert value.is_zero() and value == _naive_weighted_sum(member, Fraction(1, K), K)
            # only components above K: every weight vanishes at 1/K
            head = StarElement(n, element.level, {r: t for r, t in element.components.items() if r > K})
            assert _weighted_sum(head, Fraction(1, K), K) == SymbolTensor.zero(n, K)
        for alpha in _ALPHAS:
            member = _times_nu_minus_alpha(element, alpha)
            value = _weighted_sum(member, alpha)
            assert value.is_zero() and value == _naive_weighted_sum(member, alpha)
