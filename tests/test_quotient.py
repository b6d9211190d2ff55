"""Substitution at numeric parameter values, ideals, matrix-algebra quotients."""

import random
from fractions import Fraction

import pytest

from cpstar import quotient
from cpstar.nupoly import nu_pochhammer
from cpstar.quotient import (
    NotInIdealError,
    QuotientOperator,
    StarUndefinedError,
    check_irreducible,
    ideal_factorize,
    quotient_dimension,
    quotient_map,
    representative_element,
    star_at,
    substitute,
    unitary_generators,
)
from cpstar.multiindex import sorted_tuples
from cpstar.randgen import random_element, random_symbol
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, star_elements, star_symbols
from cpstar.symbols import (
    SymbolTensor,
    embed,
    identity_symbol,
    operator_product,
    reduce_to_min,
    symbol_of_matrix,
)


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def _times_nu_minus_alpha(element, alpha):
    """The element (nu - alpha) * element, one level up."""
    shifted = element.nu_shift(1)
    scaled = element.relevel(element.level + 1).scale(GaussRational(Fraction(alpha)))
    return shifted - scaled


def test_zero_substitution_point_is_refused():
    element = StarElement.lift(random_symbol(random.Random(3), 1, 1, density=0.9))
    for zero in (0, Fraction(0), "0", "0/5"):
        for call in (
            lambda: substitute(element, zero),
            lambda: ideal_factorize(element, zero),
            lambda: star_at(element.component(1), element.component(1), zero),
        ):
            with pytest.raises(ValueError, match="^substitution point must be nonzero$"):
                call()


def test_substitute_unit():
    assert substitute(StarElement.unit(1), Fraction(1, 2)) == SymbolTensor.constant(1, 1)


def test_substitute_is_linear():
    from cpstar.symbols import embed

    rng = random.Random(1)
    a = random_element(rng, 1, 2, density=0.8)
    b = random_element(rng, 1, 1, density=0.8)
    alpha = Fraction(2, 5)
    direct = substitute(a + b, alpha)
    sa = substitute(a, alpha)
    sb = substitute(b, alpha)
    degree = max(direct.k, sa.k, sb.k)
    total = embed(sa, degree - sa.k) + embed(sb, degree - sb.k)
    assert embed(direct, degree - direct.k) == total


def test_substitute_kills_high_components_at_reciprocal():
    # at alpha = 1/K the weight nu^(r) vanishes for every r > K
    rng = random.Random(2)
    f = random_symbol(rng, 1, 3, density=0.9)
    element = StarElement.lift(f)  # single component at r = 3
    assert substitute(element, Fraction(1, 2)).is_zero()
    assert not substitute(element, Fraction(1, 3)).is_zero()


def test_ideal_membership_of_linear_factor():
    rng = random.Random(3)
    for alpha in (Fraction(2), Fraction(1, 5), Fraction(-1, 3), Fraction(1, 2)):
        element = random_element(rng, 1, 2, density=0.8)
        member = _times_nu_minus_alpha(element, alpha)
        assert substitute(member, alpha).is_zero()


def test_ideal_factorization_round_trip_generic():
    rng = random.Random(4)
    for alpha in (Fraction(2), Fraction(1, 5), Fraction(-1, 3)):
        element = random_element(rng, 1, 2, density=0.8)
        member = _times_nu_minus_alpha(element, alpha)
        factors = ideal_factorize(member, alpha)
        assert factors.head.is_zero()
        assert factors.reconstruction() == member


def test_ideal_factorization_round_trip_reciprocal_with_head():
    # at alpha = 1/K an isolated component above K is an automatic member
    rng = random.Random(5)
    K = 2
    f = random_symbol(rng, 1, K + 1, density=0.9)
    head_element = StarElement.lift(f)
    factors = ideal_factorize(head_element, Fraction(1, K))
    assert not factors.head.is_zero()
    assert all(r > K for r in factors.head.components)
    assert factors.reconstruction() == head_element


def test_ideal_factorize_rejects_non_members():
    with pytest.raises(NotInIdealError):
        ideal_factorize(StarElement.unit(1), Fraction(1, 2))


def test_ideal_closure_under_star():
    rng = random.Random(6)
    alpha = Fraction(1, 2)
    member = _times_nu_minus_alpha(random_element(rng, 1, 1, density=0.9), alpha)
    other = random_element(rng, 1, 2, density=0.9)
    assert substitute(star_elements(member, other), alpha).is_zero()
    assert substitute(star_elements(other, member), alpha).is_zero()


def test_star_at_identity_value():
    # at alpha = 1 the product of two degree-1 symbols is the composition
    a = [[g(1), g(2)], [g(0, 1), g(1)]]
    b = [[g(1), g(0)], [g(1, -1), g(3)]]
    ab = [
        [sum((a[i][m] * b[m][j] for m in range(2)), g(0)) for j in range(2)]
        for i in range(2)
    ]
    assert star_at(symbol_of_matrix(a), symbol_of_matrix(b), 1) == reduce_to_min(
        symbol_of_matrix(ab)
    )


def _star_at_by_lifts(f, g, alpha):
    """The numeric product as the substituted product of the lifts over
    their weights nu^(k)(alpha) nu^(l)(alpha), None where a weight is 0."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    weight = quotient._pochhammer_ints(f.k, p, q) * quotient._pochhammer_ints(g.k, p, q)
    if not weight:
        return None
    product = star_elements(StarElement.lift(f), StarElement.lift(g))
    return substitute(product, alpha).scale(Fraction(q ** (max(f.k - 1, 0) + max(g.k - 1, 0)), weight))


def _star_at_by_entries(f, g, alpha):
    """The reduced closed form evaluated entry by entry, None at a pole."""
    flat = star_symbols(f, g).nrf_map()
    if any(1 / Fraction(alpha) in value.js for value in flat.values()):
        return None
    return reduce_to_min(SymbolTensor(f.n, f.k + g.k, {key: value.evaluate(alpha) for key, value in flat.items()}))


ALPHAS = (1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5), 3)


def _star_at_or_none(f, g, alpha):
    try:
        return star_at(f, g, alpha)
    except StarUndefinedError:
        return None


def test_star_at_degenerate_degrees_raise():
    rng = random.Random(7)
    high = random_symbol(rng, 1, 3, density=0.9)
    low = random_symbol(rng, 1, 1, density=0.9)
    # (3, 1) has no pole: min(k, l) = 1 leaves no factor 1 - j nu
    assert star_at(high, low, Fraction(1, 2)) == _star_at_by_entries(high, low, Fraction(1, 2))
    # (3, 3) has its poles at 1 and 1/2
    other = random_symbol(rng, 1, 3, density=0.9)
    for alpha in (1, Fraction(1, 2)):
        with pytest.raises(StarUndefinedError, match=r"^star product undefined at nu = 1(/2)? for degrees \(3, 3\)$"):
            star_at(high, other, alpha)
    # degree 2 at alpha = 1/2 is still fine: the weight (1 - nu) is nonzero
    mid = random_symbol(rng, 1, 2, density=0.9)
    star_at(mid, low, Fraction(1, 2))


@pytest.mark.parametrize("n", [1, 2])
def test_star_at_agrees_with_the_product_of_lifts_wherever_that_is_defined(n):
    rng = random.Random(40 + n)
    gained = 0
    degrees = range(6 - n)
    for k in degrees:
        for l in degrees:
            f = random_symbol(rng, n, k, density=0.9)
            gg = random_symbol(rng, n, l, density=0.9)
            for alpha in ALPHAS:
                value = _star_at_or_none(f, gg, alpha)
                assert value == _star_at_by_entries(f, gg, alpha), (n, k, l, alpha)
                if value is None:
                    # only a pole of the reduced form, 1/j with j < min(k, l)
                    assert 1 / Fraction(alpha) in range(1, min(k, l)), (n, k, l, alpha)
                old = _star_at_by_lifts(f, gg, alpha)
                if old is not None:
                    assert value == old, (n, k, l, alpha)
                elif value is not None:
                    gained += 1
    assert gained


@pytest.mark.parametrize("n, k, l, m", [(1, 1, 3, 2), (1, 2, 2, 1), (1, 3, 1, 2), (2, 1, 2, 2), (2, 2, 1, 1)])
def test_star_at_does_not_depend_on_the_degree_a_function_is_written_at(n, k, l, m):
    rng = random.Random(10 * k + l)
    f = random_symbol(rng, n, k, density=0.9)
    gg = random_symbol(rng, n, l, density=0.9)
    for alpha in ALPHAS + (Fraction(1, 4), Fraction(1, 5)):
        value = _star_at_or_none(f, gg, alpha)
        assert _star_at_or_none(embed(f, m), gg, alpha) == value, (alpha, "left")
        assert _star_at_or_none(f, embed(gg, m), alpha) == value, (alpha, "right")


def test_star_at_matches_formal_product():
    rng = random.Random(8)
    for n, k, l in [(1, 2, 2), (1, 0, 3), (1, 3, 1), (1, 3, 3), (2, 1, 2), (2, 2, 2)]:
        f = random_symbol(rng, n, k, density=0.8)
        gg = random_symbol(rng, n, l, density=0.8)
        for alpha in (Fraction(1, 7), Fraction(-2, 5), Fraction(3)):
            assert star_at(f, gg, alpha) == _star_at_by_entries(f, gg, alpha)


def test_quotient_operator_validation():
    tensor = identity_symbol(1, 2)
    with pytest.raises(ValueError):
        QuotientOperator(1, tensor)  # degree mismatch
    with pytest.raises(ValueError):
        QuotientOperator(0, tensor)
    operator = QuotientOperator(2, tensor)
    assert operator.n == 1
    assert operator.is_identity()


def test_quotient_map_unit_and_multiplicativity():
    rng = random.Random(9)
    for n, K in [(1, 1), (1, 2), (2, 1)]:
        assert quotient_map(StarElement.unit(n), K).is_identity()
        a = random_element(rng, n, 2, density=0.7)
        b = random_element(rng, n, 1, density=0.7)
        image = quotient_map(star_elements(a, b), K)
        assert image == quotient_map(a, K).compose(quotient_map(b, K))


def _gaussian_symbol(rng, n, k):
    """A degree-k symbol with fractional Gaussian entries in about half the slots."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    return SymbolTensor(
        n,
        k,
        {
            key: g(Fraction(rng.randint(-4, 4), rng.randint(1, 6)), Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
            for key in slots
            if rng.random() < 0.5
        },
    )


def test_compose_matches_the_operator_product():
    rng = random.Random(12)
    for n in range(3):
        for K in range(1, 4):
            for _ in range(3):
                a, b = _gaussian_symbol(rng, n, K), _gaussian_symbol(rng, n, K)
                expected = QuotientOperator(K, operator_product(a, b))
                assert QuotientOperator(K, a).compose(QuotientOperator(K, b)) == expected


def test_quotient_map_section():
    rng = random.Random(10)
    for n, K in [(1, 1), (1, 2), (2, 1)]:
        tensor = random_symbol(rng, n, K, density=0.8)
        operator = QuotientOperator(K, tensor)
        assert quotient_map(representative_element(operator), K) == operator


def test_quotient_dimension_values():
    assert quotient_dimension(1, 1) == 4
    assert quotient_dimension(1, 2) == 9
    assert quotient_dimension(1, 3) == 16
    assert quotient_dimension(2, 1) == 9
    assert quotient_dimension(2, 2) == 36


def test_unitary_generators_span():
    for n in (1, 2):
        generators = unitary_generators(n)
        assert len(generators) == (n + 1) ** 2
        for matrix in generators:
            for i in range(n + 1):
                for j in range(n + 1):
                    assert matrix[i][j] == -matrix[j][i].conjugate()


def test_quotient_representation_is_irreducible():
    for n, K in [(0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]:
        assert check_irreducible(n, K), (n, K)


def test_diagonal_generators_alone_act_reducibly(monkeypatch):
    # the diagonal generators commute with every diagonal operator, so the
    # commutant holds more than the multiples of the identity
    monkeypatch.setattr(quotient, "unitary_generators", lambda n: unitary_generators(n)[: n + 1])
    for n, K in [(1, 1), (1, 2), (2, 1)]:
        assert not check_irreducible(n, K), (n, K)


def test_representative_weight():
    # the section divides by the top Pochhammer weight at 1/K
    operator = QuotientOperator(2, identity_symbol(1, 2))
    element = representative_element(operator)
    weight = nu_pochhammer(2).evaluate(Fraction(1, 2))
    assert element.component(2).scale(weight) == identity_symbol(1, 2)
