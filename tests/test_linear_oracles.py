"""Linear combinations of symbol tensors and filtered elements against the
paths they replaced.

Every sum of tensors goes through ``symbols._linear`` and every sum of
elements through ``star._combined``: one accumulator over one common
denominator, normalised once per output degree.  The oracles here are the
paths those replaced, kept on purpose: ``SymbolTensor.__add__`` with its
own accumulation and ``-`` through a negated copy, the one-pass
``relevel``, ``StarElement.__add__`` as relevel-then-add per component,
and ``minimized``, ``ideal_factorize`` and ``reconstruction`` as chains of
``scale``, ``-`` and ``+``.  They are compared at ``==`` (cells and
denominators) on elements with fractional Gaussian entries, unequal levels
and sums that cancel to empty components, and the factorisations at a
generic alpha and at 1/K.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.multiindex import sorted_tuples
from cpstar.quotient import IdealFactorization, NotInIdealError, ideal_factorize
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, _combined, _relevel_weights
from cpstar.symbols import SymbolTensor, _add_scaled, _linear, _times_x, embed, reduce_degree

# -- the replaced paths -------------------------------------------------------


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
    return tensor_add_oracle(a, -b)


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


def element_sub_oracle(a, b):
    return element_add_oracle(a, -b)


def minimized_oracle(element):
    """Lower one level at a time with ``reduce_degree(psi_{r+1} - (r+1) phi)``."""
    current = element
    while current.level > 0 and 0 not in current.components:
        lowered = {}
        above = SymbolTensor.zero(element.n, current.level)
        for r in range(current.level - 1, -1, -1):
            phi = reduce_degree(tensor_sub_oracle(current.component(r + 1), above.scale(r + 1)))
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
        c_r = tensor_add_oracle(element.component(r), carry).scale(Fraction(q, q - r * p))
        if not c_r.is_zero():
            cofactor[r] = c_r
        carry = embed(c_r).scale(alpha)
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
    scaled = relevel_oracle(factors.cofactor, factors.cofactor.level + 1).scale(factors.alpha)
    return element_add_oracle(factors.head, element_sub_oracle(shifted, scaled))


# -- inputs -------------------------------------------------------------------

parts = st.fractions(min_value=-3, max_value=3, max_denominator=12)
coefficients = st.one_of(st.integers(-3, 3), parts)


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
    for r, tensor in (-relevel_oracle(first, level)).components.items():
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
        expected = tensor_add_oracle(expected, tensor.scale(Fraction(c)))
    assert _linear(n, k, terms) == expected


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
        relevel_oracle(a, level).scale(Fraction(cs[0])), relevel_oracle(b, level).scale(Fraction(cs[1]))
    )
    assert _combined(a.n, level, [(a, cs[0]), (b, cs[1])]) == expected


@settings(max_examples=100, deadline=None)
@given(element_pairs(), st.integers(0, 2))
def test_minimized_matches_the_replaced_chain(pair, extra):
    a, b = pair
    for element in (a.relevel(a.level + extra), a + b, b.relevel(b.level + 1) - b):
        assert element.minimized() == minimized_oracle(element)


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
            cofactor.nu_shift(1), relevel_oracle(cofactor, level + 1).scale(alpha)
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
