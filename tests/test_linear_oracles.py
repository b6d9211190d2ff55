"""Linear combinations of symbol tensors, raw series and filtered elements
against the paths they replaced.

Every sum, scaling and negation of tensors goes through ``symbols._linear``,
every sum of raw series through ``star._series`` (one ``_linear`` per power
of nu), and every sum, scaling and negation of elements through
``star._combined``: one accumulator over one common denominator, normalised
once per output degree, with int, ``Fraction`` or ``GaussRational``
coefficients.  The oracles here are the paths those replaced, kept on
purpose: ``SymbolTensor.scale`` and ``-`` as comprehensions over the cells,
``SymbolTensor.__add__`` with its own accumulation, the one-pass
``relevel``, ``StarElement.scale`` and ``-`` per component,
``StarElement.__add__`` as relevel-then-add per component, the
``RawNuSeries`` merge loop and ``times_nupoly`` chain, ``expand`` as a
chain of series sums, a nu-polynomial multiple in ``eval`` as a chain of
element sums, and ``minimized``, ``ideal_factorize`` and
``reconstruction`` as chains of ``scale``, ``-`` and ``+``.  They are
compared at ``==`` (cells and denominators) on fractional Gaussian entries
and coefficients, unequal levels and sums that cancel to empty powers and
components, and the factorisations at a generic alpha and at 1/K.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.expr import _scale
from cpstar.multiindex import sorted_tuples
from cpstar.nupoly import NuPolynomial, NuRationalFunction, nu_pochhammer
from cpstar.quotient import IdealFactorization, NotInIdealError, ideal_factorize
from cpstar.scalars import GaussRational
from cpstar.star import RawNuSeries, StarElement, _combined, _relevel_weights, _series, extract_structure
from cpstar.symbols import SymbolTensor, _add_scaled, _linear, _times_x, embed, reduce_degree

# -- the replaced paths -------------------------------------------------------


def tensor_scale_oracle(tensor, factor):
    """``factor = (p + q i) / m`` times the cells, over ``den * m``."""
    if isinstance(factor, GaussRational):
        p, q, m = factor._ints()
    else:
        p, q, m = factor.numerator, 0, factor.denominator
    cells = {key: (a * p - b * q, a * q + b * p) for key, (a, b) in tensor.cells.items()}
    return SymbolTensor._from_cells(tensor.n, tensor.k, tensor.den * m, cells)


def tensor_neg_oracle(tensor):
    cells = {key: (-re, -im) for key, (re, im) in tensor.cells.items()}
    return SymbolTensor._from_cells(tensor.n, tensor.k, tensor.den, cells)


def tensor_add_oracle(a, b):
    """``a + b`` with its own accumulation of scaled tuples."""
    a._require_compatible(b)
    den = lcm(a.den, b.den)
    x, y = den // a.den, den // b.den
    out = {key: (re * x, im * x) for key, (re, im) in a.cells.items()}
    for key, (re, im) in b.cells.items():
        cell = out.get(key)
        out[key] = (re * y, im * y) if cell is None else (cell[0] + re * y, cell[1] + im * y)
    return SymbolTensor._from_cells(a.n, a.k, den, out)


def tensor_sub_oracle(a, b):
    """``a - b`` as ``a + (-b)``."""
    return tensor_add_oracle(a, tensor_neg_oracle(b))


def relevel_oracle(element, new_level):
    """The one-pass relevel: every component's x-multiples add up, weighted
    by ``_relevel_weights``, on int cells over the lcm of the component
    denominators."""
    m = new_level - element.level
    if not m:
        return element
    n = element.n
    den = lcm(*(tensor.den for tensor in element.components.values()))
    sums = {}
    for r, tensor in element.components.items():
        rescale = den // tensor.den
        cells = tensor.cells
        for j, weight in enumerate(_relevel_weights(r, m)):
            if j:
                cells = _times_x(n, r + j - 1, cells)
            if weight:
                _add_scaled(sums.setdefault(r + j, {}), cells, weight * rescale)
    return StarElement(n, new_level, {d: SymbolTensor._from_cells(n, d, den, cells) for d, cells in sums.items()})


def element_add_oracle(a, b):
    """Relevel both operands, then add each component with ``+``."""
    level = max(a.level, b.level)
    a, b = relevel_oracle(a, level), relevel_oracle(b, level)
    components = dict(a.components)
    for r, tensor in b.components.items():
        total = components.get(r)
        total = tensor if total is None else tensor_add_oracle(total, tensor)
        if total.is_zero():
            components.pop(r, None)
        else:
            components[r] = total
    return StarElement(a.n, level, components)


def element_scale_oracle(element, factor):
    return StarElement(
        element.n, element.level, {r: tensor_scale_oracle(t, factor) for r, t in element.components.items()}
    )


def element_neg_oracle(element):
    return StarElement(element.n, element.level, {r: tensor_neg_oracle(t) for r, t in element.components.items()})


def element_sub_oracle(a, b):
    return element_add_oracle(a, element_neg_oracle(b))


def nu_multiple_oracle(coeffs, element):
    """A nu-polynomial multiple in ``eval``: a chain of element sums from
    the zero element at the level of ``element``, which the zero polynomial
    keeps, as the scalar 0 does."""
    out = StarElement(element.n, element.level)
    for j, c in enumerate(coeffs):
        if c:
            out = element_add_oracle(out, element_scale_oracle(element.nu_shift(j), c))
    return out


def series_add_oracle(a, b):
    """The merge loop: ``+`` per power of nu."""
    powers = dict(a.powers)
    for power, tensor in b.powers.items():
        total = powers.get(power)
        powers[power] = tensor if total is None else tensor_add_oracle(total, tensor)
    return RawNuSeries(a.n, a.degree, powers)


def series_scale_oracle(series, factor):
    return RawNuSeries(series.n, series.degree, {p: tensor_scale_oracle(t, factor) for p, t in series.powers.items()})


def series_sub_oracle(a, b):
    return series_add_oracle(a, series_scale_oracle(b, -1))


def times_nupoly(series, poly):
    """``series`` times a nu-polynomial, in one ``_series`` sum."""
    parts = [(p + j, t, c) for p, t in series.powers.items() for j, c in enumerate(poly.coeffs)]
    return _series(series.n, series.degree, parts)


def times_nupoly_oracle(series, poly):
    """A chain of scaled tensors, one ``+`` per term."""
    out = {}
    for power, tensor in series.powers.items():
        for j, c in enumerate(poly.coeffs):
            if not c:
                continue
            key = power + j
            contrib = tensor_scale_oracle(tensor, c)
            current = out.get(key)
            out[key] = contrib if current is None else tensor_add_oracle(current, contrib)
    return RawNuSeries(series.n, series.degree, out)


def expand_oracle(element):
    """A chain of series sums, one per component, with the ``GaussRational``
    coefficients of ``nu_pochhammer(r)`` shifted to the level."""
    series = RawNuSeries(element.n, element.level)
    for r, tensor in element.components.items():
        weight = nu_pochhammer(r).shift(element.level - r)
        embedded = embed(tensor, element.level - r)
        series = series_add_oracle(series, times_nupoly_oracle(RawNuSeries(element.n, element.level, {0: embedded}), weight))
    return series


def minimized_oracle(element):
    """Lower one level at a time with ``reduce_degree(psi_{r+1} - (r+1) phi)``."""
    current = element
    while current.level > 0 and 0 not in current.components:
        lowered = {}
        above = SymbolTensor.zero(element.n, current.level)
        for r in range(current.level - 1, -1, -1):
            phi = reduce_degree(tensor_sub_oracle(current.component(r + 1), tensor_scale_oracle(above, r + 1)))
            if phi is None:
                return current
            if not phi.is_zero():
                lowered[r] = phi
            above = phi
        current = StarElement(element.n, current.level - 1, lowered)
    return current


def ideal_factorize_oracle(element, alpha):
    """``(head, cofactor)`` by ``+`` and ``scale`` per component, or None
    for a non-member."""
    p, q = alpha.numerator, alpha.denominator
    n, level = element.n, element.level
    if element.is_zero():
        return StarElement(n, level), StarElement(n, max(level - 1, 0))
    top = q if p == 1 and level > q else level
    head = StarElement(n, level, {r: t for r, t in element.components.items() if r > top})
    cofactor = {}
    carry = SymbolTensor.zero(n, 0)
    for r in range(top):
        c_r = tensor_scale_oracle(tensor_add_oracle(element.component(r), carry), Fraction(q, q - r * p))
        if not c_r.is_zero():
            cofactor[r] = c_r
        carry = tensor_scale_oracle(embed(c_r), alpha)
    if not tensor_add_oracle(element.component(top), carry).is_zero():
        return None
    if not cofactor:
        return head, StarElement.zero(n)
    return head, StarElement(n, level - 1, cofactor)


def reconstruction_oracle(factors):
    """``head + (nu_shift(cofactor) - alpha relevel(cofactor))``."""
    if factors.cofactor.is_zero():
        return factors.head
    shifted = factors.cofactor.nu_shift(1)
    scaled = element_scale_oracle(relevel_oracle(factors.cofactor, factors.cofactor.level + 1), factors.alpha)
    return element_add_oracle(factors.head, element_sub_oracle(shifted, scaled))


# -- inputs -------------------------------------------------------------------

parts = st.fractions(min_value=-3, max_value=3, max_denominator=12)
gaussians = st.builds(GaussRational, parts, parts)
coefficients = st.one_of(st.integers(-3, 3), parts, gaussians)


@st.composite
def tensors(draw, n, k):
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    keys = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
    return SymbolTensor(n, k, {key: GaussRational(draw(parts), draw(parts)) for key in keys})


@st.composite
def elements(draw, n, level):
    """Components over fractional denominators, some degrees left out."""
    return StarElement(n, level, {r: draw(tensors(n, r)) for r in range(level + 1) if draw(st.booleans())})


@st.composite
def element_pairs(draw):
    """Two elements of unequal levels as a rule, the second built from
    minus the first relevelled, with some components kept (so they cancel
    in the sum), some replaced and some dropped."""
    n = draw(st.integers(1, 2))
    first = draw(elements(n, draw(st.integers(0, 3))))
    level = first.level + draw(st.integers(0, 2))
    components = {}
    for r, tensor in element_neg_oracle(relevel_oracle(first, level)).components.items():
        choice = draw(st.sampled_from(["keep", "replace", "drop"]))
        if choice == "keep":
            components[r] = tensor
        elif choice == "replace":
            components[r] = draw(tensors(n, r))
    second = StarElement(n, level, components)
    return (second, first) if draw(st.booleans()) else (first, second)


# -- tensors ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_sums_match_the_replaced_accumulation(data):
    n, k = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a, b = data.draw(tensors(n, k)), data.draw(tensors(n, k))
    assert a + b == tensor_add_oracle(a, b)
    assert a - b == tensor_sub_oracle(a, b)
    assert (a - a).is_zero() and (a + -a).is_zero()
    assert (a + b) - b == a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_matches_chained_scale_and_add(data):
    n, k = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    terms = data.draw(st.lists(st.tuples(tensors(n, k), coefficients), max_size=4))
    expected = SymbolTensor.zero(n, k)
    for tensor, c in terms:
        expected = tensor_add_oracle(expected, tensor_scale_oracle(tensor, c))
    assert _linear(n, k, terms) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_scale_and_negation_match_the_replaced_comprehensions(data):
    n, k = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a, c = data.draw(tensors(n, k)), data.draw(coefficients)
    assert a.scale(c) == tensor_scale_oracle(a, c)
    assert -a == tensor_neg_oracle(a)
    assert a.scale(0) == SymbolTensor.zero(n, k) and a.scale(1) == a


def test_linear_of_cancelling_terms_is_empty():
    a = SymbolTensor(1, 1, {((0,), (1,)): Fraction(1, 3), ((1,), (1,)): GaussRational(2, Fraction(-1, 5))})
    total = _linear(1, 1, [(a, Fraction(3, 2)), (a, -1), (a.scale(2), Fraction(-1, 4))])
    assert total == SymbolTensor.zero(1, 1) and total.den == 1
    assert _linear(1, 1, []) == SymbolTensor.zero(1, 1)


# -- filtered elements --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.integers(0, 2))
def test_element_sums_and_relevel_match_the_replaced_paths(pair, extra):
    a, b = pair
    assert a + b == element_add_oracle(a, b)
    assert a - b == element_sub_oracle(a, b)
    assert a.relevel(a.level + extra) == relevel_oracle(a, a.level + extra)
    assert (a - a).is_zero() and (a - a).level == a.level


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.lists(coefficients, min_size=2, max_size=2), st.integers(0, 2))
def test_combined_matches_relevel_scale_and_add(pair, cs, extra):
    (a, b), level = pair, max(pair[0].level, pair[1].level) + extra
    expected = element_add_oracle(
        element_scale_oracle(relevel_oracle(a, level), cs[0]), element_scale_oracle(relevel_oracle(b, level), cs[1])
    )
    assert _combined(a.n, level, [(a, cs[0]), (b, cs[1])]) == expected


@settings(max_examples=100, deadline=None)
@given(element_pairs(), coefficients)
def test_element_scale_and_negation_match_the_replaced_comprehensions(pair, c):
    a, _ = pair
    assert a.scale(c) == element_scale_oracle(a, c)
    assert -a == element_neg_oracle(a)
    assert a.scale(0) == StarElement(a.n, a.level)  # the level is kept


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.lists(coefficients, max_size=4))
def test_nu_multiples_match_the_chained_sums(pair, coeffs):
    a, _ = pair
    scalar = NuRationalFunction(NuPolynomial(coeffs))
    expected = nu_multiple_oracle(scalar.num.coeffs, a)
    assert _scale(scalar, a) == expected
    assert expected.level == (a.level + scalar.num.degree if scalar else a.level)


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.integers(0, 2))
def test_minimized_matches_the_replaced_chain(pair, extra):
    a, b = pair
    for element in (a.relevel(a.level + extra), a + b, b.relevel(b.level + 1) - b):
        assert element.minimized() == minimized_oracle(element)


# -- raw series -----------------------------------------------------------------


@st.composite
def series_pairs(draw):
    """Two series of one shape, the second built from minus the first with
    some powers kept (so they cancel in the sum), some replaced and some
    dropped."""
    n, degree = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    first = RawNuSeries(n, degree, {p: draw(tensors(n, degree)) for p in range(4) if draw(st.booleans())})
    powers = {}
    for p, tensor in first.powers.items():
        choice = draw(st.sampled_from(["keep", "replace", "drop"]))
        if choice == "keep":
            powers[p] = tensor_neg_oracle(tensor)
        elif choice == "replace":
            powers[p] = draw(tensors(n, degree))
    if draw(st.booleans()):
        powers[4] = draw(tensors(n, degree))
    second = RawNuSeries(n, degree, powers)
    return (second, first) if draw(st.booleans()) else (first, second)


@settings(max_examples=100, deadline=None)
@given(series_pairs(), coefficients, st.lists(coefficients, max_size=4))
def test_series_arithmetic_matches_the_replaced_loops(pair, c, coeffs):
    a, b = pair
    assert a + b == series_add_oracle(a, b)
    assert a - b == series_sub_oracle(a, b)
    assert (a - a).is_zero()
    assert a.scale(c) == series_scale_oracle(a, c)
    poly = NuPolynomial(coeffs)
    assert times_nupoly(a, poly) == times_nupoly_oracle(a, poly)


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_expand_matches_the_chained_series_sums(pair):
    for element in (*pair, pair[0] + pair[1]):
        series = element.expand()
        assert series == expand_oracle(element)
        recovered = extract_structure(series, element.level)
        assert recovered == (element if element.components else StarElement.zero(element.n))


# -- ideal factorisation ------------------------------------------------------

ALPHAS = [Fraction(2, 7), Fraction(-3, 5), Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1, 3)]


def _check_factorization(element, alpha):
    expected = ideal_factorize_oracle(element, alpha)
    if expected is None:
        with pytest.raises(NotInIdealError):
            ideal_factorize(element, alpha)
        return
    factors = ideal_factorize(element, alpha)
    assert (factors.head, factors.cofactor) == expected
    assert factors.reconstruction() == reconstruction_oracle(factors) == element


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.data())
def test_ideal_factorize_and_reconstruction_match_the_replaced_chains(n, level, data):
    cofactor = data.draw(elements(n, level))
    for alpha in ALPHAS:
        times_nu_minus_alpha = element_sub_oracle(
            cofactor.nu_shift(1), element_scale_oracle(relevel_oracle(cofactor, level + 1), alpha)
        )
        _check_factorization(times_nu_minus_alpha, alpha)
        _check_factorization(cofactor, alpha)
        if alpha.numerator == 1:
            # components above K form the head at 1/K
            K = alpha.denominator
            head = StarElement(n, level + 1, {r: data.draw(tensors(n, r)) for r in range(K + 1, level + 2)})
            _check_factorization(element_add_oracle(times_nu_minus_alpha, head), alpha)


def test_reconstruction_keeps_a_higher_head_level():
    head = StarElement.lift(SymbolTensor(1, 3, {((0, 0, 1), (1, 1, 1)): Fraction(2, 3)}))
    cofactor = StarElement.unit(1)
    factors = IdealFactorization(Fraction(1, 2), head, cofactor)
    assert factors.reconstruction() == reconstruction_oracle(factors)
    assert factors.reconstruction().level == 3
