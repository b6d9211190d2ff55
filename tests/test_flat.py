"""Flat model: polynomial-times-exponential functions under the Wick product.

``wick_product_flat`` translates the polynomial parts and calls the literal
Wick product; the nilpotent-exponential engine it replaced
(``flat_helpers``) is its oracle, and the literal product on ``zpoly`` is
that engine's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.models.flat import ExpPolyFunction, wick_product_flat
from cpstar.models.radial import wick_product_literal
from cpstar.nupoly import NuPolynomial
from cpstar.scalars import GaussRational
from cpstar.zpoly import ZPoly
from flat_helpers import exponential, nilpotent_flat_product


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def substitute_lambda(func: ExpPolyFunction, alpha) -> ExpPolyFunction:
    """Evaluate all lam-polynomial coefficients at a number.

    The ``exp(lam . slope)`` factors stay formal (they are transcendental
    at a generic numeric parameter), so slopes survive substitution while
    each coefficient collapses to a constant.
    """
    pairs = ((key, NuPolynomial.constant(poly.evaluate(alpha))) for key, poly in func.coeffs.items())
    return func._built(func._key(), pairs)


def _to_zpoly(func: ExpPolyFunction) -> ZPoly:
    """Convert a purely polynomial function to an explicit z/zbar polynomial.

    A ``ZPoly(n)`` has exponent vectors of length ``n + 1``, so ``coords``
    coordinates make a ``ZPoly(coords - 1)``.
    """
    out = ZPoly(func.coords - 1)
    for (z_exps, zbar_exps, a, b, slope), poly in func.coeffs.items():
        assert not any(a) and not any(b) and not slope, "not a polynomial term"
        out.add_term((tuple(zbar_exps), tuple(z_exps)), poly)
    return out


def _from_monomials(coords, *terms):
    total = ExpPolyFunction.zero(coords)
    for z_exps, zbar_exps, coeff in terms:
        total = total + ExpPolyFunction.monomial(coords, z_exps, zbar_exps, coeff)
    return total


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExpPolyFunction(0)
    with pytest.raises(ValueError):
        ExpPolyFunction.monomial(2, (1,), (0, 0))
    zero_term = ExpPolyFunction.monomial(1, (1,), (0,), 0)
    assert zero_term.is_zero()


def test_unit_for_the_product():
    one = ExpPolyFunction.one(2)
    f = _from_monomials(2, ((1, 0), (0, 1), 2), ((0, 0), (1, 1), Fraction(1, 3)))
    assert wick_product_flat(one, f) == f
    assert wick_product_flat(f, one) == f


def test_product_of_pure_exponentials_accumulates_slope():
    # e_(a,b) * e_(a',b') = exp(lam a.b') e_(a+a', b+b')
    left = exponential(1, (g(2),), (g(3),))
    right = exponential(1, (g(5),), (g(7),))
    product = wick_product_flat(left, right)
    assert len(product.coeffs) == 1
    ((z_exps, zbar_exps, a, b, slope),) = product.coeffs
    assert z_exps == (0,) and zbar_exps == (0,)
    assert a == (g(7),) and b == (g(10),)
    assert slope == g(2) * g(7)  # a . b'
    assert product.coeffs[(z_exps, zbar_exps, a, b, slope)] == NuPolynomial((1,))


def test_slope_is_order_sensitive():
    left = exponential(1, (g(2),), (g(3),))
    right = exponential(1, (g(5),), (g(7),))
    forward = wick_product_flat(left, right)
    backward = wick_product_flat(right, left)
    assert next(iter(forward.coeffs))[4] == g(14)
    assert next(iter(backward.coeffs))[4] == g(15)


def test_polynomial_products_match_literal_wick_expansion():
    # z * zbar in one coordinate: zbar z + lam
    z = ExpPolyFunction.monomial(1, (1,), (0,))
    zbar = ExpPolyFunction.monomial(1, (0,), (1,))
    product = wick_product_flat(z, zbar)
    expected = _from_monomials(1, ((1,), (1,), 1), ((0,), (0,), NuPolynomial((0, 1))))
    assert product == expected
    # reversed order has no contraction
    assert wick_product_flat(zbar, z) == _from_monomials(1, ((1,), (1,), 1))


def test_polynomial_products_against_zpoly_oracle():
    # the replaced engine against the literal product: the flat product
    # calls the literal product itself, so it is checked against the engine
    cases = [
        _from_monomials(2, ((1, 0), (0, 1), 2), ((0, 1), (0, 0), g(0, 1))),
        _from_monomials(2, ((2, 0), (1, 0), 1)),
        _from_monomials(2, ((1, 1), (1, 1), Fraction(1, 2))),
    ]
    for left in cases:
        for right in cases:
            product = nilpotent_flat_product(left, right)
            assert _to_zpoly(product) == wick_product_literal(
                _to_zpoly(left), _to_zpoly(right)
            )


def test_mixed_exponential_polynomial_associativity():
    a = exponential(1, (g(1),), (g(0),))
    b = ExpPolyFunction.monomial(1, (2,), (1,))
    c = exponential(1, (g(0),), (g(1),)) + ExpPolyFunction.monomial(
        1, (0,), (1,)
    )
    left = wick_product_flat(wick_product_flat(a, b), c)
    right = wick_product_flat(a, wick_product_flat(b, c))
    assert left == right


def test_product_is_bilinear():
    a = ExpPolyFunction.monomial(1, (1,), (0,))
    b = ExpPolyFunction.monomial(1, (0,), (1,))
    c = exponential(1, (g(1),), (g(2),))
    direct = wick_product_flat(a + b, c)
    split = wick_product_flat(a, c) + wick_product_flat(b, c)
    assert direct == split


def test_substitute_lambda_collapses_coefficients():
    z = ExpPolyFunction.monomial(1, (1,), (0,))
    zbar = ExpPolyFunction.monomial(1, (0,), (1,))
    product = wick_product_flat(z, zbar)  # zbar z + lam
    at_third = substitute_lambda(product, Fraction(1, 3))
    expected = _from_monomials(1, ((1,), (1,), 1), ((0,), (0,), Fraction(1, 3)))
    assert at_third == expected


def test_coordinate_mismatch_raises():
    with pytest.raises(ValueError):
        wick_product_flat(ExpPolyFunction.one(1), ExpPolyFunction.one(2))


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gauss = st.builds(GaussRational, small, small)
lam_polys = st.lists(small, min_size=1, max_size=3).map(NuPolynomial)


def functions(coords: int):
    """Sums of up to two terms of degree at most 3 in z and in zbar; most
    carry nonzero frequencies and slopes."""
    exps = st.tuples(*[st.integers(0, 2)] * coords).filter(lambda e: sum(e) <= 3)
    freqs = st.tuples(*[gauss] * coords)
    keys = st.tuples(exps, exps, freqs, freqs, gauss)
    return st.dictionaries(keys, lam_polys, max_size=2).map(lambda c: ExpPolyFunction(coords, c))


pairs = st.integers(1, 3).flatmap(lambda coords: st.tuples(functions(coords), functions(coords)))


@settings(deadline=None, max_examples=40)
@given(pairs)
def test_translation_product_matches_the_nilpotent_engine(pair):
    left, right = pair
    assert wick_product_flat(left, right).coeffs == nilpotent_flat_product(left, right).coeffs


def test_translation_of_a_monomial_with_frequencies():
    # z^2 zbar e_(1, 0) * z zbar^2 e_(0, 2) on one coordinate: the left z
    # moves by 2 lam, the right zbar by lam
    left = ExpPolyFunction(1, {((2,), (1,), (g(1),), (g(0),), g(0)): 1})
    right = ExpPolyFunction(1, {((1,), (2,), (g(0),), (g(2),), g(0)): 1})
    product = wick_product_flat(left, right)
    assert product == nilpotent_flat_product(left, right)
    assert {key[4] for key in product.coeffs} == {g(2)}
    frequencies = ((g(1),), (g(2),), g(2))
    assert product.coeffs[((3,), (3,)) + frequencies] == NuPolynomial((1,))
    # z^2 zbar^3 only from the order-0 term of (z + 2 lam)^2 zbar times
    # z zbar^2: binomial 2 times the shift 2 lam
    assert product.coeffs[((2,), (3,)) + frequencies] == NuPolynomial((0, 4))
