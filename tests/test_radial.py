"""Radial model: polynomials in x, iterated Wick powers, scaling operator."""

import random
from fractions import Fraction
from math import factorial

import pytest

from cpstar.models.radial import (
    RADIAL_ONE,
    RADIAL_X,
    RadialPolynomial,
    check_scaling_consistency,
    check_star_exponential,
    closed_exponential_series,
    radial_pullback,
    s_on_monomial,
    star_exponential_series,
    truncated_reciprocal,
    validate_radial_recurrence,
    wick_product_literal,
    wick_radial_power,
    wick_star_x,
)
from cpstar.nupoly import NuPolynomial
from cpstar.randgen import random_symbol
from cpstar.symbols import wick_contraction
from cpstar.zpoly import ZPoly


def lam_poly(*coeffs):
    return NuPolynomial(coeffs)


def at_lambda(p, alpha):
    """Substitute a number for lam, leaving a plain polynomial in x."""
    return RadialPolynomial({power: a.evaluate(alpha) for power, a in p.coeffs.items()})


def expand(monomial):
    """The polynomial of a positive-branch ``ScaledMonomial``:
    x**power prod (1 + c lam/x) = x**(power - #factors) prod (x + c lam)."""
    assert all(exponent == 1 for _, exponent in monomial.factors)
    result = RadialPolynomial.x_power(monomial.power - len(monomial.factors))
    for c, _ in monomial.factors:
        result = result * RadialPolynomial({1: 1, 0: lam_poly(0, c)})
    return result


def test_radial_polynomial_arithmetic():
    p = RadialPolynomial({1: lam_poly(2), 0: lam_poly(0, 1)})  # 2x + lam
    q = RadialPolynomial({1: lam_poly(1)})  # x
    assert (p + q).coefficient(1) == lam_poly(3)
    assert (p - q).coefficient(1) == lam_poly(1)
    product = p * q
    assert product.coefficient(2) == lam_poly(2)
    assert product.coefficient(1) == lam_poly(0, 1)
    assert p.scale(Fraction(1, 2)).coefficient(0) == lam_poly(0, Fraction(1, 2))
    assert p.times_x().coefficient(2) == lam_poly(2)
    assert p.times_lambda().coefficient(1) == lam_poly(0, 2)
    assert p.derivative() == RadialPolynomial({0: lam_poly(2)})
    assert p.degree == 1


def test_negative_powers_of_lambda_are_refused():
    for p in (RadialPolynomial({1: lam_poly(2)}), RadialPolynomial.zero()):
        with pytest.raises(ValueError, match="^times_lambda requires a nonnegative exponent$"):
            p.times_lambda(-1)


def test_radial_polynomial_evaluation():
    p = RadialPolynomial({2: lam_poly(1), 0: lam_poly(0, 0, 3)})  # x^2 + 3 lam^2
    assert p.evaluate(Fraction(2), Fraction(1, 2)) == Fraction(19, 4)
    assert at_lambda(p, Fraction(1, 2)) == RadialPolynomial(
        {2: lam_poly(1), 0: lam_poly(Fraction(3, 4))}
    )


def test_wick_star_x_adds_derivative_term():
    # x * p = x p + lam x p'
    assert wick_star_x(RADIAL_ONE) == RADIAL_X
    result = wick_star_x(RADIAL_X)
    assert result == RadialPolynomial({2: lam_poly(1), 1: lam_poly(0, 1)})


def test_wick_powers_are_stirling_sums():
    # x^(star m) = sum_j S2(m, j) lam^(m-j) x^j
    stirling = {
        1: {1: 1},
        2: {1: 1, 2: 1},
        3: {1: 1, 2: 3, 3: 1},
        4: {1: 1, 2: 7, 3: 6, 4: 1},
        5: {1: 1, 2: 15, 3: 25, 4: 10, 5: 1},
        6: {1: 1, 2: 31, 3: 90, 4: 65, 5: 15, 6: 1},
    }
    for m, row in stirling.items():
        power = wick_radial_power(m)
        for j, count in row.items():
            assert power.coefficient(j) == NuPolynomial.nu_power(m - j, count), (m, j)
    assert wick_radial_power(0) == RADIAL_ONE


def test_scaling_operator_on_small_monomials():
    assert expand(s_on_monomial(0)) == RADIAL_ONE
    assert expand(s_on_monomial(1)) == RADIAL_X
    # r = 2: (x - lam)(x - 2 lam) = x^2 - 3 lam x + 2 lam^2
    expanded = expand(s_on_monomial(2))
    assert expanded == RadialPolynomial(
        {2: lam_poly(1), 1: lam_poly(0, -3), 0: lam_poly(0, 0, 2)}
    )
    # r = 3 gains the factor (x - 3 lam)
    cubic = expand(s_on_monomial(3))
    assert cubic.coefficient(3) == lam_poly(1)
    assert cubic.coefficient(2) == lam_poly(0, -6)
    assert cubic.coefficient(1) == lam_poly(0, 0, 11)
    assert cubic.coefficient(0) == lam_poly(0, 0, 0, -6)


def test_scaling_operator_series_heads():
    # series in t = lam/x: the forward image of x^2 starts 1 - 3t + 2t^2
    assert s_on_monomial(2).series(3) == [
        Fraction(1),
        Fraction(-3),
        Fraction(2),
        Fraction(0),
    ]
    # reciprocal factors: 1/((1 + t)(1 + 2t)) = 1 - 3t + 7t^2 - ...
    inverse = s_on_monomial(2, inverse=True).series(2)
    assert inverse == [Fraction(1), Fraction(-3), Fraction(7)]


def test_truncated_reciprocal():
    series = [Fraction(1), Fraction(2), Fraction(-1)]
    inverse = truncated_reciprocal(series, 4)
    # convolution against the input gives 1 modulo t^5
    total = [Fraction(0)] * 5
    for i, a in enumerate(series):
        for j, b in enumerate(inverse):
            if i + j <= 4:
                total[i + j] += a * b
    assert total == [Fraction(1), 0, 0, 0, 0]
    with pytest.raises(ValueError):
        truncated_reciprocal([Fraction(0)], 2)


def test_scaling_consistency_through_order_eight():
    for r in range(9):
        assert check_scaling_consistency(r), r


def test_recurrence_agrees_with_literal_wick_product():
    assert validate_radial_recurrence(max_power=4, coords=2)
    assert validate_radial_recurrence(max_power=3, coords=3)


def test_literal_product_on_radial_pullbacks():
    # x * x in two affine coordinates, computed by explicit differentiation
    x = radial_pullback(RADIAL_X, 2)
    product = wick_product_literal(x, x)
    expected = radial_pullback(wick_radial_power(2), 2)
    assert product == expected


@pytest.mark.parametrize("n", [1, 2])
def test_literal_product_terms_are_the_contractions_on_cpn(n):
    # t! times the lam**t part of the literal product of the z/zbar
    # polynomials, over all n + 1 coordinates, is the t-th contraction
    rng = random.Random(7)
    cases = 0
    for k in (1, 2):
        for l in (1, 2):
            f, g = random_symbol(rng, n, k), random_symbol(rng, n, l)
            product = wick_product_literal(f.to_zpoly(), g.to_zpoly())
            for t in range(min(k, l) + 1):
                terms = {key: poly.coeffs[t] * factorial(t) for key, poly in product.terms.items() if t < len(poly.coeffs)}
                assert ZPoly(n, terms) == wick_contraction(f, g, t).to_zpoly(), (n, k, l, t)
                cases += 1
    assert cases == 9


def test_star_exponential_series_closed_form():
    iterated = star_exponential_series(6)
    closed = closed_exponential_series(6)
    assert iterated == closed
    # alpha^2 coefficient is x^(star 2)/2 = (x^2 + lam x)/2
    assert iterated[2] == RadialPolynomial(
        {2: lam_poly(Fraction(1, 2)), 1: lam_poly(0, Fraction(1, 2))}
    )
    assert iterated[0] == RADIAL_ONE
    assert iterated[1] == RADIAL_X


def test_star_exponential_full_check():
    assert check_star_exponential(8)
