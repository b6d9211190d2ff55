"""Polynomials and rational functions in the deformation parameter."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpstar.expr import MAX_DISK_INDEX
from cpstar.models.disk import DiskElement, disk_product
from cpstar.nupoly import (
    MAX_LOADED_DEGREE,
    NRF_ONE,
    NRF_ZERO,
    NU,
    NU_ONE,
    NU_ZERO,
    SPLIT_BOUND,
    NuPolynomial,
    NuRationalFunction,
    nu_pochhammer,
)
from cpstar.scalars import GaussRational, to_gauss
from cpstar.serialize import disk_from_json, disk_to_json

from nu_helpers import over_factors, poly_divmod

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
polys = st.builds(
    NuPolynomial,
    st.lists(st.builds(GaussRational, small_rationals, small_rationals), max_size=6),
)


def test_trailing_zeros_are_trimmed():
    assert NuPolynomial((1, 2, 0, 0)).coeffs == (GaussRational(1), GaussRational(2))
    assert NuPolynomial((0, 0)).is_zero()
    assert NuPolynomial().degree == -1


def test_constant_and_power_constructors():
    assert NuPolynomial.constant(Fraction(2, 3)).coeffs == (GaussRational(Fraction(2, 3)),)
    cubic = NuPolynomial.nu_power(3, 5)
    assert cubic.degree == 3
    assert cubic.coefficient(3) == GaussRational(5)
    assert cubic.coefficient(0) == GaussRational(0)
    with pytest.raises(ValueError):
        NuPolynomial.nu_power(-1)


def test_addition_and_multiplication():
    p = NuPolynomial((1, 1))  # 1 + nu
    q = NuPolynomial((1, -1))  # 1 - nu
    assert p + q == NuPolynomial((2,))
    assert p * q == NuPolynomial((1, 0, -1))
    assert p * 2 == NuPolynomial((2, 2))
    assert Fraction(1, 2) * p == NuPolynomial((Fraction(1, 2), Fraction(1, 2)))
    assert -p == NuPolynomial((-1, -1))


def test_shift_multiplies_by_nu_powers():
    p = NuPolynomial((2, 3))
    assert p.shift(2) == NuPolynomial((0, 0, 2, 3))
    assert p.shift(0) == p
    assert NU_ZERO.shift(5) == NU_ZERO


def test_negative_shifts_are_refused():
    for value in (NuPolynomial((1, 2)), NU_ZERO):
        with pytest.raises(ValueError, match="^shift requires a nonnegative exponent$"):
            value.shift(-1)


def test_evaluate_horner():
    p = NuPolynomial((1, -3, 2))  # (1 - nu)(1 - 2 nu)
    assert p.evaluate(Fraction(1, 2)) == GaussRational(0)
    assert p.evaluate(0) == GaussRational(1)
    assert p.evaluate(GaussRational(0, 1)) == GaussRational(-1, -3)
    assert p.evaluate(1) == GaussRational(0)


def test_monic_normalization():
    p = NuPolynomial((2, 4))
    assert p.monic() == NuPolynomial((Fraction(1, 2), 1))
    assert NU_ZERO.monic() == NU_ZERO


def test_divmod_exact_division():
    # the long division of the Euclidean oracle in nu_helpers
    product = NuPolynomial((1, -3, 2))
    q, r = poly_divmod(product, NuPolynomial((1, -1)))
    assert r.is_zero()
    assert q == NuPolynomial((1, -2))
    with pytest.raises(ZeroDivisionError):
        poly_divmod(product, NU_ZERO)


@given(polys, polys)
def test_divmod_reconstructs(p, d):
    if d.is_zero():
        return
    q, r = poly_divmod(p, d)
    assert q * d + r == p
    assert r.is_zero() or r.degree < d.degree


def test_pochhammer_base_cases():
    assert nu_pochhammer(0) == NU_ONE
    assert nu_pochhammer(1) == NU_ONE
    assert nu_pochhammer(2) == NuPolynomial((1, -1))
    assert nu_pochhammer(3) == NuPolynomial((1, -3, 2))
    with pytest.raises(ValueError):
        nu_pochhammer(-1)


def test_pochhammer_recurrence():
    for k in range(1, 8):
        step = NuPolynomial((1, -k))  # 1 - k nu
        assert nu_pochhammer(k + 1) == nu_pochhammer(k) * step


def test_pochhammer_vanishing_at_reciprocal_integers():
    for K in range(1, 6):
        alpha = Fraction(1, K)
        for k in range(0, K + 4):
            value = nu_pochhammer(k).evaluate(alpha)
            if k >= K + 1:
                assert not value, (K, k)
            else:
                assert value, (K, k)


def test_pochhammer_top_value_at_reciprocal():
    # at nu = 1/K the weight of the top level equals K!/K^K
    for K in range(1, 7):
        expected = GaussRational(Fraction(factorial(K), K**K))
        assert nu_pochhammer(K).evaluate(Fraction(1, K)) == expected


def test_rational_function_normalizes_common_factors():
    num = NU * NuPolynomial((1, -1))  # nu (1 - nu)
    den = NuPolynomial((1, -1))  # 1 - nu; becomes nu - 1 when made monic
    assert NuRationalFunction(num, den) == NuRationalFunction(NU)


def test_rational_function_monic_denominator():
    f = NuRationalFunction(NU_ONE, NuPolynomial((-2, 2)))
    assert f.den.leading() == GaussRational(1)
    assert f.evaluate(0) == GaussRational(Fraction(-1, 2))


def test_rational_function_arithmetic():
    half = NuRationalFunction(NU_ONE, NuPolynomial((2,)))
    nu_frac = NuRationalFunction(NU)
    assert half + half == NRF_ONE
    assert nu_frac * nu_frac == NuRationalFunction(NU * NU)
    assert (nu_frac / nu_frac) == NRF_ONE
    assert nu_frac - nu_frac == NRF_ZERO
    with pytest.raises(ZeroDivisionError):
        nu_frac / NRF_ZERO
    with pytest.raises(ZeroDivisionError):
        NuRationalFunction(NU_ONE, NU_ZERO)


def test_the_constructor_splits_the_denominator():
    # (1 - 2 nu)(1 + 3 nu) splits; a common power of nu cancels
    assert NuRationalFunction(NU_ONE, NuPolynomial((1, -2)) * NuPolynomial((1, 3))).js == (-3, 2)
    assert NuRationalFunction(NU, NU) == 1
    assert NuRationalFunction(NU * NU, NU * NuPolynomial((2, -2))) == NuRationalFunction(NU, NuPolynomial((2, -2)))
    # a pole at nu = 0, no rational root, and a root 1/j past the search
    for den in (NU, NuPolynomial((1, 0, 1)), NuPolynomial((1, -(SPLIT_BOUND + 1)))):
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction(NU_ONE, den)
    assert NuRationalFunction(NU_ONE, NuPolynomial((1, -SPLIT_BOUND))).js == (SPLIT_BOUND,)
    # division goes through the constructor
    with pytest.raises(ValueError, match="does not split"):
        NRF_ONE / NuRationalFunction(NuPolynomial((1, 0, 1)))
    assert (NRF_ONE / NuRationalFunction(NuPolynomial((1, -2)))).js == (2,)
    assert NuRationalFunction(NU_ZERO, NU) == NRF_ZERO


def test_rational_function_evaluate():
    f = NuRationalFunction(NuPolynomial((0, 1)), NuPolynomial((1, -1)))  # nu/(1-nu)
    assert f.evaluate(Fraction(1, 3)) == GaussRational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


def evaluate_by_views(value: NuRationalFunction, alpha) -> GaussRational:
    """The value through the ``num`` and ``den`` views, by Horner on each."""
    den_value = value.den.evaluate(alpha)
    if not den_value:
        raise ZeroDivisionError(f"denominator vanishes at nu = {alpha}")
    return value.num.evaluate(alpha) / den_value


def _outcome(evaluate, value, alpha):
    try:
        return evaluate(value, alpha)
    except ZeroDivisionError as exc:
        return str(exc)


factor_js = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3, 5)), max_size=4)
points = (
    st.builds(GaussRational, small_rationals, small_rationals)
    | st.sampled_from((-3, -2, -1, 1, 2, 3, 5)).map(lambda j: Fraction(1, j))
    | st.integers(-4, 4)
)


@given(polys, factor_js, points)
def test_evaluate_on_the_stored_form_matches_the_views(num, js, alpha):
    value = over_factors(num, js)
    assert _outcome(NuRationalFunction.evaluate, value, alpha) == _outcome(evaluate_by_views, value, alpha)


def test_evaluate_at_a_pole_names_the_point():
    value = over_factors(NuPolynomial((1, 1)), (1, 2, 2))
    for alpha, text in ((1, "1"), (Fraction(1, 2), "1/2")):
        with pytest.raises(ZeroDivisionError, match=f"^denominator vanishes at nu = {text}$"):
            value.evaluate(alpha)
    assert value.evaluate(GaussRational(0, 1)) == evaluate_by_views(value, GaussRational(0, 1))


def test_rational_function_equality_against_polynomials():
    assert NuRationalFunction(NU) == NU
    assert NRF_ONE == 1
    assert NuRationalFunction(NU, NuPolynomial((2,))) != NU


def test_equal_constants_and_polynomials_hash_equal():
    assert NuPolynomial((1,)) == 1 and hash(NuPolynomial((1,))) == hash(1)
    assert NU_ZERO == 0 and hash(NU_ZERO) == hash(0)
    assert NuRationalFunction(NU) == NU and hash(NuRationalFunction(NU)) == hash(NU)
    assert NRF_ONE == 1 and hash(NRF_ONE) == hash(1)


scalar_values = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.builds(GaussRational, st.fractions(min_value=-2, max_value=2, max_denominator=2), st.sampled_from([0, Fraction(1, 2)])),
)
short_polys = st.lists(scalar_values, max_size=3).map(NuPolynomial)


def _forms(value):
    """Every form of ``value`` in the five types that can hold it."""
    if isinstance(value, NuRationalFunction):
        return [value, NuRationalFunction(value.num, value.den)]
    if isinstance(value, NuPolynomial):
        forms = [value, NuRationalFunction(value)]
        forms += [over_factors(value * NuPolynomial((1, -j)), [j]) for j in (1, -2)]
        if value.degree < 1:
            forms += _forms(value.coeffs[0] if value.coeffs else 0)[:3]
        return forms
    gauss = to_gauss(value)
    forms = [gauss, NuPolynomial.constant(value), NuRationalFunction.constant(value)]
    if not gauss.im:
        forms += [Fraction(gauss.re)]
        if gauss.re.denominator == 1:
            forms += [int(gauss.re)]
    return forms


values = st.one_of(
    scalar_values,
    short_polys,
    st.builds(over_factors, short_polys, st.lists(st.sampled_from([-1, 1, 2]), max_size=2)),
)


@given(st.lists(values, min_size=1, max_size=4))
def test_values_that_compare_equal_hash_equal(drawn):
    everything = [form for value in drawn for form in _forms(value)]
    for a in everything:
        for b in everything:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_json_round_trips():
    p = NuPolynomial((Fraction(1, 2), GaussRational(0, 1), 3))
    assert NuPolynomial.from_json(p.to_json()) == p
    f = NuRationalFunction(NuPolynomial((1, 1)), NuPolynomial((1, 0, -4)))
    assert f.js == (-2, 2)
    assert NuRationalFunction.from_json(f.to_json()) == f


@given(polys, polys, polys)
def test_polynomial_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_str_rendering():
    assert str(NU_ZERO) == "0"
    assert str(NuPolynomial((1, 0, Fraction(-1, 2)))) == "1 + (-1/2)*nu^2"


def loaded(num: int, den: int, split: bool) -> dict:
    """``{"num", "den"}`` of degree ``num`` over ``den``: (1 - nu)^den splits,
    2 + nu^den is not 2 times an integer product."""
    base = NuPolynomial((2,) + (0,) * (den - 1) + (1,))
    if split:
        base = NU_ONE
        for _ in range(den):
            base = base * NuPolynomial((1, -1))
    return {"num": ["1"] * (num + 1), "den": base.to_json()}


def test_loaded_degree_budgets():
    # a denominator that is not constant is bounded on load, before it is
    # split; one that does not split is refused at any degree
    at = NuRationalFunction.from_json(loaded(MAX_LOADED_DEGREE, MAX_LOADED_DEGREE, True))
    assert (at.num.degree, at.den.degree) == (MAX_LOADED_DEGREE, MAX_LOADED_DEGREE)
    assert at.js == (1,) * MAX_LOADED_DEGREE
    for split in (True, False):
        for num, den in ((0, MAX_LOADED_DEGREE + 1), (MAX_LOADED_DEGREE + 1, 1), (200, 2)):
            with pytest.raises(ValueError, match="MAX_LOADED_DEGREE = "):
                NuRationalFunction.from_json(loaded(num, den, split))
    for num, den in ((1, 1), (1, 32), (MAX_LOADED_DEGREE, MAX_LOADED_DEGREE)):
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction.from_json(loaded(num, den, False))
    long = {"num": ["1"] * 300, "den": ["2"]}
    assert NuRationalFunction.from_json(long).num.degree == 299


def test_written_degree_budget():
    # a product may pass the budget; it is refused when written, as it would
    # be when read back, and a long numerator over a constant is not
    c = NuRationalFunction.from_json(loaded(0, MAX_LOADED_DEGREE, True))
    assert NuRationalFunction.from_json(c.to_json()) == c
    square = c * c
    assert (square.num.degree, square.den.degree) == (0, 2 * MAX_LOADED_DEGREE)
    with pytest.raises(ValueError, match="of degree 0 over 128: .* MAX_LOADED_DEGREE = "):
        square.to_json()
    over = DiskElement.basis(1, 0, c)
    with pytest.raises(ValueError, match="MAX_LOADED_DEGREE = "):
        disk_to_json(disk_product(over, over))
    long = NuRationalFunction(NuPolynomial([1] * 300))
    assert NuRationalFunction.from_json(long.to_json()) == long


def test_loaded_degree_budget_admits_the_disk_coefficients_cpstar_writes():
    # the chains f_{0,q}^(24/q) reach basis index 24 (MAX_DISK_INDEX), or 20
    # for q = 5; the coefficient of f_{0,24} in their sum has the largest
    # degrees measured, 48 over 37, and the sum reads back from its JSON,
    # every denominator factored
    total = DiskElement.zero()
    for q in (2, 3, 4, 5, 6, 8, 12, 24):
        chain = DiskElement.basis(0, q)
        for _ in range(24 // q - 1):
            chain = disk_product(chain, DiskElement.basis(0, q))
        total = total + chain
    assert MAX_DISK_INDEX == 24
    top = total.coeffs[(0, 24)]
    assert (top.num.degree, top.den.degree) == (48, 37) and max(48, 37) <= MAX_LOADED_DEGREE
    loaded = disk_from_json(disk_to_json(total))
    assert loaded == total
    assert all(value.js is not None for value in loaded.coeffs.values())
    assert loaded.coeffs[(0, 24)]._ints() == top._ints()


def test_loaded_denominators_split_over_integers():
    # den(0) prod(1 - j nu) comes back factored at any scale; the numerator
    # 1 + nu cancels one factor j = -1.  A denominator with a root that is
    # not 1/j for an integer j, or with a complex ratio, does not split
    num = NuPolynomial((1, 1))
    for js, scale in [((2,), 1), ((-1, -1, 3), Fraction(-2, 3)), ((-23, -1, 5, 5), GaussRational(0, 2))]:
        den = NuPolynomial((scale,))
        for j in js:
            den = den * NuPolynomial((1, -j))
        value = NuRationalFunction.from_json({"num": num.to_json(), "den": den.to_json()})
        kept = list(js)
        if -1 in kept:
            kept.remove(-1)
        assert value.js == tuple(sorted(kept))
        assert value == NuRationalFunction(num, den)
    for den in (NuPolynomial((1, 0, 1)), NuPolynomial((2, 1)), NuPolynomial((1, GaussRational(0, 1))), NU):
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction.from_json({"num": num.to_json(), "den": den.to_json()})
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction(num, den)
