"""The integer-form scalar against the ``Fraction``-pair class it replaced.

``scalars.GaussRational`` stores one reduced Gaussian-integer form
``(p, q, m)``, the value ``(p + q i) / m`` with ``m > 0`` and
``gcd(p, q, m) == 1``, and computes on ints.  The oracle here is the class
it replaced, kept on purpose: real and imaginary parts as two
``fractions.Fraction`` values, each operation done part by part.  Every
operator, with ``int`` and ``Fraction`` operands on either side, must give
the same value, the same exceptions, equality, hash and text, and keep the
stored form reduced.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.scalars import GaussRational, _format_ratio
from cpstar.symbols import SymbolTensor


def format_rational(value) -> str:
    """Render an int or ``Fraction`` as ``p/q``, omitting ``/q`` when the
    denominator is 1: the number format of the JSON output on one rational."""
    value = Fraction(value)
    return _format_ratio(value.numerator, value.denominator)


class FractionPairGauss:
    """The replaced scalar: exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self):
        return not self.im

    def __add__(self, other):
        if isinstance(other, FractionPairGauss):
            return FractionPairGauss(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return FractionPairGauss(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FractionPairGauss):
            return FractionPairGauss(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return FractionPairGauss(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPairGauss(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return FractionPairGauss(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, FractionPairGauss):
            a, b, c, d = self.re, self.im, other.re, other.im
            return FractionPairGauss(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return FractionPairGauss(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return FractionPairGauss(self.re / other, self.im / other)
        if isinstance(other, FractionPairGauss):
            norm = other.re * other.re + other.im * other.im
            if not norm:
                raise ZeroDivisionError("division by zero")
            a, b, c, d = self.re, self.im, other.re, other.im
            return FractionPairGauss((a * c + b * d) / norm, (b * c - a * d) / norm)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPairGauss(other) / self
        return NotImplemented

    def conjugate(self):
        return FractionPairGauss(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, FractionPairGauss):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"

    def to_json(self):
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


# -- strategies ------------------------------------------------------------

bits = st.integers(2, 512)
integers = bits.flatmap(lambda b: st.integers(-(2**b), 2**b))
denominators = bits.flatmap(lambda b: st.integers(1, 2**b))
rationals = st.one_of(
    st.builds(Fraction, integers, denominators),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
plain = st.one_of(integers, st.integers(-3, 3), rationals)  # int and Fraction operands
pairs = st.one_of(st.tuples(rationals, rationals), st.tuples(rationals, st.just(Fraction(0))))


def assert_reduced(value: GaussRational) -> None:
    p, q, m = value._ints()
    assert type(p) is int and type(q) is int and type(m) is int
    assert m > 0 and gcd(p, q, m) == 1
    if not (p or q):
        assert m == 1


def outcome(function, *args):
    """The value as ``(re, im)`` Fractions, or the exception type raised."""
    try:
        value = function(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    if isinstance(value, GaussRational):
        assert_reduced(value)
    assert type(value.re) is Fraction and type(value.im) is Fraction
    return value.re, value.im


BINARY = [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
]
UNARY = [lambda x: -x, lambda x: x.conjugate()]


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_arithmetic_matches_the_fraction_pair_oracle(left, right):
    a, b = GaussRational(*left), GaussRational(*right)
    ao, bo = FractionPairGauss(*left), FractionPairGauss(*right)
    for value, oracle, parts in ((a, ao, left), (b, bo, right)):
        assert_reduced(value)
        assert (value.re, value.im) == (oracle.re, oracle.im) == parts
        for unary in UNARY:
            assert outcome(unary, value) == outcome(unary, oracle)
    for binary in BINARY:
        assert outcome(binary, a, b) == outcome(binary, ao, bo)
        assert outcome(binary, b, a) == outcome(binary, bo, ao)
        assert outcome(binary, a, a) == outcome(binary, ao, ao)


@settings(max_examples=300, deadline=None)
@given(pairs, plain)
def test_int_and_fraction_operands_on_either_side(parts, other):
    a, ao = GaussRational(*parts), FractionPairGauss(*parts)
    for binary in BINARY:  # __add__ ... __truediv__, then __radd__ ... __rtruediv__
        assert outcome(binary, a, other) == outcome(binary, ao, other)
        assert outcome(binary, other, a) == outcome(binary, other, ao)
    real = GaussRational(other)
    assert_reduced(real)
    assert (real == other) and (other == real) and hash(real) == hash(Fraction(other))
    assert (a == other) == (ao == other) and (other == a) == (other == ao)
    assert (a != other) == (ao != other)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equality_hash_and_text_match_the_oracle(left, right):
    a, b = GaussRational(*left), GaussRational(*right)
    ao, bo = FractionPairGauss(*left), FractionPairGauss(*right)
    assert (a == b) == (ao == bo) and (a != b) == (ao != bo)
    assert hash(a) == hash(ao)
    if a.is_real:
        assert a == a.re and a.re == a and hash(a) == hash(a.re)
    assert (bool(a), a.is_real) == (bool(ao), ao.is_real)
    assert (str(a), repr(a), a.to_json()) == (str(ao), repr(ao), ao.to_json())
    assert GaussRational.from_json(a.to_json()) == a
    assert GaussRational(*left) == a and hash(GaussRational(*left)) == hash(a)


def test_zero_division_and_the_zero_form():
    zero = GaussRational()
    assert zero._ints() == (0, 0, 1) and not zero and zero.is_real
    assert (GaussRational(3, 4) - GaussRational(3, 4))._ints() == (0, 0, 1)
    assert (GaussRational(Fraction(1, 6), 1) - GaussRational(Fraction(1, 6), 1))._ints() == (0, 0, 1)
    assert (GaussRational(Fraction(1, 6)) * 0)._ints() == (0, 0, 1)
    for value in (GaussRational(1), GaussRational(Fraction(2, 3), -1), zero):
        for divisor in (0, Fraction(0), zero, GaussRational(0, 0)):
            with pytest.raises(ZeroDivisionError):
                value / divisor
        for dividend in (1, 0, Fraction(-2, 3)):
            with pytest.raises(ZeroDivisionError):
                dividend / zero


def test_construction_accepts_what_it_accepted():
    assert GaussRational(True, False) == 1
    assert GaussRational("1/2", "-3") == GaussRational(Fraction(1, 2), -3)
    assert GaussRational(Fraction(4, 6), Fraction(1, 4))._ints() == (8, 3, 12)
    assert GaussRational(Fraction(1, 2), Fraction(1, 2))._ints() == (1, 1, 2)
    assert GaussRational(-7)._ints() == (-7, 0, 1)
    with pytest.raises(ZeroDivisionError):
        GaussRational("1/0")
    with pytest.raises(TypeError):
        GaussRational([1])
    with pytest.raises(TypeError, match="float"):
        GaussRational(0.5)
    with pytest.raises(TypeError, match="complex"):
        GaussRational(1, 1j)
    with pytest.raises(TypeError, match="float"):
        SymbolTensor(1, 0, {((), ()): 0.1})
    with pytest.raises(ValueError):
        GaussRational("one")


def test_immutability():
    value = GaussRational(1, 2)
    for name in ("re", "im", "_form", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, Fraction(2))
    assert value._ints() == (1, 2, 1)
    with pytest.raises(AttributeError):
        value.__dict__
