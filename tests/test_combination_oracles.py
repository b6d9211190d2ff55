"""The disk, radial and flat values on the one combination core against the
per-class code they replaced.

``DiskElement``, ``RadialPolynomial`` and ``ExpPolyFunction``, like the two
torus classes, now build every value through
``models._combination.Combination``: one loop merges equal keys and drops
zeros, and one ``==``, ``hash``, ``+`` and ``-`` serve all five classes.
The oracles here are the code they replaced, kept on purpose: each class's
constructor loop, its ``+`` and ``-`` (merge into a copy, then the
constructor), its ``scale``, its ``==`` and its ``hash``.  Random values,
with keys that repeat across operands and within one list of pairs, sums
that cancel to zero and scaling by zero, must give the same coefficients
and the same refusals, and equal values must hash alike.  One difference
is intended: ``+`` or ``-`` across classes, or across flat sums with
different ``coords``, raises ``ValueError`` with the class's message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.models.disk import DiskElement, _as_coefficient
from cpstar.models.flat import ExpPolyFunction, _as_lambda_poly, wick_product_flat
from cpstar.models.radial import RadialPolynomial
from cpstar.models.torus import FourierSum
from cpstar.nupoly import NRF_ZERO, NU_ZERO, NuPolynomial, NuRationalFunction
from cpstar.scalars import GAUSS_ZERO, GaussRational


class DiskOracle:
    """The replaced ``DiskElement`` constructor, ``+``, ``-``, ``scale``,
    ``==`` and ``hash``."""

    def __init__(self, coeffs=None):
        cleaned = {}
        for (p, q), value in (coeffs or {}).items():
            if p < 0 or q < 0:
                raise ValueError("disk basis indices are nonnegative")
            coeff = _as_coefficient(value)
            if coeff:
                cleaned[(p, q)] = coeff
        self.coeffs = cleaned

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            out[key] = out.get(key, NRF_ZERO) + coeff
        return DiskOracle(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            out[key] = out.get(key, NRF_ZERO) - coeff
        return DiskOracle(out)

    def scale(self, factor):
        coeff = _as_coefficient(factor)
        return DiskOracle({key: value * coeff for key, value in self.coeffs.items()})


class RadialOracle:
    """The replaced ``RadialPolynomial`` constructor, ``+``, ``-``, ``*``,
    ``scale``, ``==`` and ``hash``."""

    def __init__(self, coeffs=None):
        cleaned = {}
        for power, value in (coeffs or {}).items():
            if power < 0:
                raise ValueError("radial polynomials have nonnegative powers")
            poly = _as_lambda_poly(value)
            if poly:
                cleaned[power] = poly
        self.coeffs = cleaned

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for power, poly in other.coeffs.items():
            out[power] = out.get(power, NU_ZERO) + poly
        return RadialOracle(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for power, poly in other.coeffs.items():
            out[power] = out.get(power, NU_ZERO) - poly
        return RadialOracle(out)

    def __mul__(self, other):
        out = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                out[p + q] = out.get(p + q, NU_ZERO) + a * b
        return RadialOracle(out)

    def scale(self, factor):
        poly = _as_lambda_poly(factor)
        return RadialOracle({p: a * poly for p, a in self.coeffs.items()})


class FlatOracle:
    """The replaced ``ExpPolyFunction`` constructor, ``+``, ``-``, negation,
    ``scale``, ``==`` and ``hash``, with its map under the old name
    ``terms``."""

    def __init__(self, coords, terms=None):
        if coords < 1:
            raise ValueError("need at least one complex coordinate")
        cleaned = {}
        for key, value in (terms or {}).items():
            z_exps, zbar_exps, a, b, slope = key
            if len(z_exps) != coords or len(zbar_exps) != coords:
                raise ValueError("monomial exponent vectors must match coords")
            if len(a) != coords or len(b) != coords:
                raise ValueError("frequency vectors must match coords")
            poly = _as_lambda_poly(value)
            if poly:
                cleaned[key] = poly
        self.coords = coords
        self.terms = cleaned

    @property
    def coeffs(self):
        return self.terms

    def __eq__(self, other):
        return self.coords == other.coords and self.terms == other.terms

    def __hash__(self):
        return hash((self.coords, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.coords != other.coords:
            raise ValueError("coordinate count mismatch")
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out.get(key, NU_ZERO) + poly
        return FlatOracle(self.coords, out)

    def __sub__(self, other):
        if self.coords != other.coords:
            raise ValueError("coordinate count mismatch")
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out.get(key, NU_ZERO) - poly
        return FlatOracle(self.coords, out)

    def __neg__(self):
        return FlatOracle(self.coords, {k: -p for k, p in self.terms.items()})

    def scale(self, factor):
        poly = _as_lambda_poly(factor)
        return FlatOracle(self.coords, {k: p * poly for k, p in self.terms.items()})


def outcome(function, *args):
    """The value, or the type and message of the ``ValueError`` raised."""
    try:
        return "ok", function(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _values(a, b, factor):
    """The values the comparison covers, built the same way on either side:
    sums and differences over repeated keys, sums that cancel to zero and
    scaling, by zero too."""
    return [a, b, a + b, a - b, b - a, a - a, a + b - b, a + a.scale(-1), a.scale(0), a.scale(factor), b.scale(factor) + a]


def _compare(build, build_oracle, left, right, pairs, factor):
    """The new class against its oracle on constructor input ``left`` and
    ``right`` and on a list of (key, value) ``pairs`` whose keys repeat."""
    got, expected = outcome(build, *left), outcome(build_oracle, *left)
    if got[0] != "ok" or expected[0] != "ok":
        assert got == expected
        return
    a, oa = got[1], expected[1]
    b, ob = build(*right), build_oracle(*right)
    values, oracles = _values(a, b, factor), _values(oa, ob, factor)
    key = left[:-1]
    joined, oracle_joined = build(*key), build_oracle(*key)
    for basis, value in pairs:
        joined, oracle_joined = joined + build(*key, {basis: value}), oracle_joined + build_oracle(*key, {basis: value})
    values.append(type(a)._built(key, ((basis, _coerced(a, value)) for basis, value in pairs)))
    values.append(joined)
    oracles.extend([oracle_joined, oracle_joined])
    for value, oracle in zip(values, oracles):
        assert value.coeffs == oracle.coeffs
        assert all(value.coeffs.values()) and value.is_zero() == (not oracle.coeffs)
    assert values[5].is_zero() and values[7].is_zero() and values[8].is_zero()
    for value, oracle in zip(values, oracles):
        for other, other_oracle in zip(values, oracles):
            assert (value == other) == (oracle == other_oracle)
            if value == other:
                assert hash(value) == hash(other)


def _coerced(value, coefficient):
    """A coefficient in the ring of ``value``'s class, as its constructor
    coerces it."""
    return _as_coefficient(coefficient) if isinstance(value, DiskElement) else _as_lambda_poly(coefficient)


# -- strategies ------------------------------------------------------------

small = st.integers(-2, 2)
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
lam_polys = st.builds(lambda cs: NuPolynomial(tuple(cs)), st.lists(rationals, max_size=3))
nu_rationals = st.builds(
    lambda num, c: NuRationalFunction(NuPolynomial(tuple(num)), NuPolynomial((1, c))),
    st.lists(small, max_size=3),
    st.integers(0, 2),
)
disk_values = st.one_of(small, rationals, lam_polys, nu_rationals)
disk_keys = st.tuples(st.integers(-1, 2), st.integers(0, 2)).filter(lambda k: k[0] >= 0) | st.just((0, -1))
valid_disk_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
radial_values = st.one_of(small, rationals, lam_polys)
gauss = st.sampled_from([GAUSS_ZERO, GaussRational(1), GaussRational(0, Fraction(1, 2)), GaussRational(-2, 1)])


def flat_keys(coords):
    vector = st.lists(st.integers(0, 1), min_size=coords, max_size=coords).map(tuple)
    frequencies = st.lists(gauss, min_size=coords, max_size=coords).map(tuple)
    return st.tuples(vector, vector, frequencies, frequencies, gauss)


wrong_flat_keys = st.tuples(st.just((0,)), st.just((0, 0)), st.just((GAUSS_ZERO,) * 2), st.just((GAUSS_ZERO,) * 2), gauss)


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(disk_keys, disk_values, max_size=4),
    st.dictionaries(valid_disk_keys, disk_values, max_size=4),
    st.lists(st.tuples(valid_disk_keys, disk_values), max_size=6),
    st.one_of(small, nu_rationals),
)
def test_disk_elements_match_the_replaced_class(left, right, pairs, factor):
    _compare(DiskElement, DiskOracle, (left,), (right,), pairs, factor)


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(st.integers(-1, 3), radial_values, max_size=4),
    st.dictionaries(st.integers(0, 3), radial_values, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), radial_values), max_size=6),
    st.one_of(small, lam_polys),
)
def test_radial_polynomials_match_the_replaced_class(left, right, pairs, factor):
    _compare(RadialPolynomial, RadialOracle, (left,), (right,), pairs, factor)
    if -1 not in left:
        a, b = RadialPolynomial(left), RadialPolynomial(right)
        assert (a * b).coeffs == (RadialOracle(left) * RadialOracle(right)).coeffs


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2), st.one_of(small, lam_polys))
def test_flat_sums_match_the_replaced_class(data, coords, factor):
    keys = flat_keys(max(coords, 1))
    left = data.draw(st.dictionaries(keys | wrong_flat_keys, radial_values, max_size=4))
    right = data.draw(st.dictionaries(keys, radial_values, max_size=4))
    pairs = data.draw(st.lists(st.tuples(keys, radial_values), max_size=6))
    _compare(ExpPolyFunction, FlatOracle, (coords, left), (max(coords, 1), right), pairs, factor)
    if outcome(ExpPolyFunction, coords, left)[0] == "ok":
        assert (-ExpPolyFunction(coords, left)).coeffs == (-FlatOracle(coords, left)).coeffs


def test_mixed_operands_raise_the_class_message():
    flat = ExpPolyFunction.one(1)
    torus = FourierSum.mode(2, [[0, 1], [-1, 0]], Fraction(1, 3), (1, 0))
    values = [DiskElement.unit(), RadialPolynomial.one(), flat, torus]
    messages = ["mismatched disk elements", "mismatched radial polynomials", "coordinate count mismatch", "mismatched torus algebras"]
    for value, message in zip(values, messages):
        for other in values:
            if other is value:
                continue
            for operation in (value.__add__, value.__sub__):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    operation(other)
    wider = ExpPolyFunction.one(2)
    for operation in (flat.__add__, flat.__sub__, lambda other: wick_product_flat(flat, other)):
        with pytest.raises(ValueError, match="^coordinate count mismatch$"):
            operation(wider)
    for value in values[:3]:
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            value.coeffs = {}
