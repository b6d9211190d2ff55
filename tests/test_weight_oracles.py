"""The one integer weight formula against the polynomial builds it replaced.

``star._star_coefficient`` and ``models.disk.disk_basis_coefficient`` are
both ``nupoly._weight_ints`` reduced by ``NuRationalFunction._from_ints``,
``nu_pochhammer`` and ``neg_nu_pochhammer`` read the integer product of
``nupoly._linear_ints``, and ``quotient._pochhammer_ints`` takes the same
factors at ``alpha = p/q`` as one int.  The oracles here are the builds
they replaced, kept on purpose: the recursive ``NuPolynomial`` product for
the Pochhammer polynomials, Horner's rule over its expanded coefficients
(``pochhammer_at``) for its values, and a ``NuPolynomial`` numerator over
its factors (``over_factors``) for the two weights.  Results must agree
structurally: numerator, monic denominator and the factors carried.
Negation and multiples by a scalar or a polynomial of a factored value are
checked against the Euclidean oracle of ``nu_helpers``.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from cpstar.models.disk import disk_basis_coefficient, neg_nu_pochhammer
from cpstar.nupoly import NU_ONE, NuPolynomial, NuRationalFunction, _linear_ints, _pochhammer_js, nu_pochhammer
from cpstar.quotient import _pochhammer_ints
from cpstar.randgen import random_scalar
from cpstar.scalars import GaussRational, to_gauss
from cpstar.star import _star_coefficient

from nu_helpers import euclid, expanded, over_factors


@lru_cache(maxsize=None)
def reference_pochhammer(k: int) -> NuPolynomial:
    """``nu^(k)`` by the recurrence ``nu^(k+1) = (1 - k nu) nu^(k)``."""
    if k <= 1:
        return NU_ONE
    return reference_pochhammer(k - 1) * NuPolynomial((1, -(k - 1)))


def pochhammer_at(r: int, alpha: Fraction) -> Fraction:
    """nu^(r) at ``alpha = p/q``: its integer coefficients in homogeneous
    Horner order, ``sum_m c_m p^m q^(d-m)`` over ``q^d``, d its degree."""
    p, q = alpha.numerator, alpha.denominator
    num, power = 0, 1
    for c in reversed(_linear_ints(_pochhammer_js(r))):
        num, power = num * p + c * power, power * q
    return Fraction(num, power // q)


def reference_neg_pochhammer(k: int) -> NuPolynomial:
    return NuPolynomial((-1) ** j * c for j, c in enumerate(reference_pochhammer(k).coeffs))


def reference_star_coefficient(k: int, l: int, r: int) -> NuRationalFunction:
    numerator = (reference_pochhammer(k + l - r) * Fraction(1, factorial(r))).shift(r)
    return over_factors(numerator, (*range(1, k), *range(1, l)))


def reference_disk_coefficient(q: int, r: int, s: int, m: int) -> NuRationalFunction:
    numerator = NuPolynomial.nu_power(m) * reference_neg_pochhammer(q + s - m)
    scale = Fraction(factorial(q) * factorial(r), factorial(m) * factorial(q - m) * factorial(r - m))
    factors = (*range(-1, -q, -1), *range(-1, -s, -1))  # 1 + j nu = 1 - (-j) nu
    return over_factors(numerator * scale, factors)


def assert_same(value: NuRationalFunction, expected: NuRationalFunction) -> None:
    assert (value.num, value.den, value.js) == (expected.num, expected.den, expected.js)


def test_pochhammer_views_match_the_recursive_product():
    for k in range(14):
        assert nu_pochhammer(k) == reference_pochhammer(k)
        assert neg_nu_pochhammer(k) == reference_neg_pochhammer(k)
    for view in (nu_pochhammer, neg_nu_pochhammer):
        with pytest.raises(ValueError):
            view(-1)


def test_star_coefficient_matches_the_polynomial_numerator():
    cancelled = 0
    for k in range(9):
        for l in range(9):
            for r in range(min(k, l) + 1):
                value = _star_coefficient(k, l, r)
                assert_same(value, reference_star_coefficient(k, l, r))
                cancelled += len(value.js) < max(k - 1, 0) + max(l - 1, 0)
    assert cancelled > 100  # most weights lose factors to the numerator


def test_star_coefficient_lies_over_the_lesser_pochhammer_product():
    # k + l - t >= max(k, l), so nu^(max(k, l)) cancels from nu^(k+l-t) and
    # no other factor does: every term of f * g lies over nu^(min(k, l))
    for k in range(9):
        for l in range(9):
            for t in range(min(k, l) + 1):
                assert _star_coefficient(k, l, t).js == _pochhammer_js(min(k, l))


def test_disk_coefficient_matches_the_polynomial_numerator():
    for q in range(8):
        for r in range(8):
            for s in range(8):
                for m in range(min(q, r) + 1):
                    assert_same(disk_basis_coefficient(q, r, s, m), reference_disk_coefficient(q, r, s, m))


def test_pochhammer_at_matches_polynomial_evaluation():
    alphas = [Fraction(1, K) for K in range(1, 6)] + [
        Fraction(2, 7),
        Fraction(5, 3),
        Fraction(3),
        Fraction(-3, 5),
        Fraction(-1, 2),
        Fraction(-4),
    ]
    for r in range(12):
        for alpha in alphas:
            p, q = alpha.numerator, alpha.denominator
            ints = _pochhammer_ints(r, p, q)
            assert type(ints) is int
            expected = reference_pochhammer(r).evaluate(alpha)
            for value in (pochhammer_at(r, alpha), Fraction(ints, q ** max(r - 1, 0))):
                assert isinstance(value, Fraction)
                assert GaussRational(value) == expected
        for K in range(1, 6):  # nu^(r) vanishes at 1/K exactly from r = K + 1 on
            assert (pochhammer_at(r, Fraction(1, K)) == 0) == (r >= K + 1)
            assert (_pochhammer_ints(r, 1, K) == 0) == (r >= K + 1)


def assert_canonical(value: NuRationalFunction, expected) -> None:
    assert value.num == expected.num and value.den == expected.den
    assert value.den == expanded(value.js).monic()


def test_negation_and_multiples_of_factored_values_match_euclid():
    rng = random.Random(16)
    samples = [_star_coefficient(3, 2, 1), disk_basis_coefficient(2, 3, 3, 1)]
    for _ in range(40):
        js = tuple(rng.choice((-3, -2, -1, 1, 2, 2, 3)) for _ in range(rng.randint(0, 4)))
        num = NuPolynomial(random_scalar(rng) * Fraction(1, rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
        samples.append(over_factors(num, js))
    for a in samples:
        assert_canonical(-a, euclid(-a.num, a.den))
        assert_canonical(-(-a), a)
        for scale in (0, 3, Fraction(-2, 7), random_scalar(rng), GaussRational(0, 1)):
            expected = euclid(a.num * to_gauss(scale), a.den)
            assert_canonical(a * scale, expected)
            assert_canonical(scale * a, expected)
        # a polynomial that shares a root with the denominator cancels it
        poly = NuPolynomial((1, -rng.choice(a.js))) if a.js else NuPolynomial((2, 1))
        assert_canonical(a * poly, euclid(a.num * poly, a.den))
        assert_canonical(poly * a, euclid(a.num * poly, a.den))
