"""Exact complex-rational scalar arithmetic."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpstar.scalars import (
    GAUSS_I,
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussRational,
    _rational_parts,
    parse_rational,
    to_gauss,
)

from test_scalar_oracles import format_rational

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
gauss = st.builds(GaussRational, rationals, rationals)


def test_construction_coerces_to_fraction():
    value = GaussRational(2, Fraction(1, 3))
    assert value.re == Fraction(2)
    assert value.im == Fraction(1, 3)


def test_immutability():
    with pytest.raises(AttributeError):
        GAUSS_ONE.re = Fraction(2)


def test_parse_and_format_round_trip():
    for text in ["0", "7", "-3", "5/3", "-11/4"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


def test_basic_arithmetic():
    a = GaussRational(1, 2)
    b = GaussRational(Fraction(1, 2), -1)
    assert a + b == GaussRational(Fraction(3, 2), 1)
    assert a - b == GaussRational(Fraction(1, 2), 3)
    assert a * b == GaussRational(Fraction(5, 2), 0)
    assert GAUSS_I * GAUSS_I == GaussRational(-1)
    assert -a == GaussRational(-1, -2)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_decimal_exponents_over_the_digit_limit_are_refused_before_fraction_runs():
    limit = sys.get_int_max_str_digits()
    # Fraction would build 10**99999999 first, which runs for minutes
    for text, exponent in [("1e99999999", 99999999), ("\t-.5E-99_999_999 ", -99999999), (f"3.e+{limit + 1}", limit + 1)]:
        with pytest.raises(ValueError) as refused:
            _rational_parts(text)
        assert str(refused.value) == f"rational with a decimal exponent of {exponent}, beyond the limit of {limit}"
    assert _rational_parts(f"1e{limit}") == (10**limit, 1)
    assert _rational_parts(f"-1e-{limit}") == (-1, 10**limit)
    # texts Fraction refuses keep Fraction's own message
    for text in (f"E{limit + 1}", f"1e {limit + 1}", f"1e{limit + 1}/2", f"1.2.e{limit + 1}"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            _rational_parts(text)


def test_mixed_scalar_operations():
    a = GaussRational(1, 1)
    assert a + 1 == GaussRational(2, 1)
    assert 1 + a == GaussRational(2, 1)
    assert 2 - a == GaussRational(1, -1)
    assert a * Fraction(1, 2) == GaussRational(Fraction(1, 2), Fraction(1, 2))
    assert a / 2 == GaussRational(Fraction(1, 2), Fraction(1, 2))
    assert 2 / GaussRational(1, 1) == GaussRational(1, -1)


def test_division():
    a = GaussRational(3, 4)
    b = GaussRational(1, -2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GAUSS_ZERO
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_conjugate_and_reality():
    a = GaussRational(3, 4)
    assert a.conjugate() == GaussRational(3, -4)
    assert (a * a.conjugate()).is_real
    assert GaussRational(5).is_real
    assert not GAUSS_I.is_real


def test_equality_against_plain_rationals():
    assert GaussRational(Fraction(3, 2)) == Fraction(3, 2)
    assert GaussRational(2) == 2
    assert GaussRational(2, 1) != 2
    assert hash(GaussRational(7)) == hash(Fraction(7))


def test_bool_and_zero():
    assert not GAUSS_ZERO
    assert GAUSS_ONE
    assert GaussRational(0, Fraction(1, 5))


def test_str_rendering():
    assert str(GaussRational(Fraction(1, 2))) == "1/2"
    assert str(GaussRational(0, -2)) == "-2*i"
    assert str(GaussRational(1, Fraction(-3, 4))) == "1-3/4*i"
    assert str(GaussRational(1, Fraction(3, 4))) == "1+3/4*i"


def test_json_round_trip():
    value = GaussRational(Fraction(-5, 3), Fraction(7, 2))
    assert GaussRational.from_json(value.to_json()) == value
    assert GaussRational.from_json({"re": "2"}) == GaussRational(2)
    assert GaussRational.from_json({"im": "1/3"}) == GaussRational(0, Fraction(1, 3))


def test_to_gauss_passthrough():
    value = GaussRational(1, 2)
    assert to_gauss(value) is value
    assert to_gauss(Fraction(1, 3)) == GaussRational(Fraction(1, 3))
    assert to_gauss(4) == GaussRational(4)


@given(gauss, gauss)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(gauss, gauss, gauss)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gauss, gauss)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


@given(gauss, gauss)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
