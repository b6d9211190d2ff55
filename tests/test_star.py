"""Star products of symbols and the filtered subalgebra."""

import random
from fractions import Fraction
from math import factorial

import pytest

from cpstar.nupoly import NU, NU_ONE, NuPolynomial, NuRationalFunction, nu_pochhammer
from cpstar.quotient import substitute
from cpstar.randgen import random_element, random_matrix, random_symbol
from cpstar.scalars import GaussRational
from cpstar.star import (
    RawNuSeries,
    StarElement,
    StarProductTerms,
    StarTerm,
    check_power_closed_form,
    check_strong_invariance,
    extract_structure,
    star_commutator,
    star_elements,
    star_symbols,
)
from cpstar.multiindex import sorted_tuples
from cpstar.symbols import (
    SymbolTensor,
    embed,
    pointwise_mul,
    symbol_of_matrix,
    wick_contraction_reference,
)

from test_linear_oracles import times_nupoly


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def test_degree_one_coefficients():
    # the two scalar weights for degree-one symbols are (1 - nu) and nu
    a = symbol_of_matrix([[g(1), g(0)], [g(0), g(0)]])
    b = symbol_of_matrix([[g(0), g(0)], [g(0), g(1)]])
    product = star_symbols(a, b)
    assert [term.r for term in product] == [0, 1]
    assert product.terms[0].coefficient == NuRationalFunction(NuPolynomial((1, -1)))
    assert product.terms[1].coefficient == NuRationalFunction(NU)
    assert product.terms[0].tensor == pointwise_mul(a, b)
    # orthogonal projections: the first-order contraction term vanishes
    assert product.terms[1].tensor.is_zero()


def test_star_requires_matching_dimension():
    a = random_symbol(random.Random(0), 1, 1)
    b = random_symbol(random.Random(1), 2, 1)
    with pytest.raises(ValueError):
        star_symbols(a, b)
    with pytest.raises(ValueError):
        star_elements(StarElement.lift(a), StarElement.lift(b))


def test_commutator_is_antisymmetric():
    rng = random.Random(2)
    a = random_symbol(rng, 1, 2, density=0.8)
    b = random_symbol(rng, 1, 1, density=0.8)
    fwd = star_commutator(a, b)
    bwd = star_commutator(b, a)
    for s, t in zip(fwd.terms, bwd.terms):
        assert s.tensor == -t.tensor


def test_commuting_diagonal_symbols():
    a = symbol_of_matrix([[g(1), g(0)], [g(0), g(-1)]])
    b = symbol_of_matrix([[g(3), g(0)], [g(0), g(2)]])
    assert star_commutator(a, b).is_zero()


def test_element_product_expansion_matches_symbol_product():
    # lifting clears the Pochhammer denominators: the expanded product of two
    # lifted symbols equals the symbol star product scaled by nu^(k) nu^(l)
    rng = random.Random(3)
    for n, k, l in [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 2)]:
        f = random_symbol(rng, n, k, density=0.7)
        gg = random_symbol(rng, n, l, density=0.7)
        series = star_elements(StarElement.lift(f), StarElement.lift(gg)).expand()
        flat = star_symbols(f, gg).nrf_map(k + l)
        clearing = NuRationalFunction(nu_pochhammer(k) * nu_pochhammer(l))
        # collect the series into per-entry nu-polynomials
        collected: dict = {}
        for power, tensor in series.powers.items():
            for key, value in tensor.entries.items():
                poly = collected.get(key, NuPolynomial())
                collected[key] = poly + NuPolynomial.nu_power(power, value)
        expected = {
            key: value * clearing for key, value in flat.items() if not value.is_zero()
        }
        assert {k_: NuRationalFunction(v) for k_, v in collected.items()} == expected


def test_element_product_consistent_with_numeric_star():
    from cpstar.quotient import star_at

    rng = random.Random(4)
    f = random_symbol(rng, 1, 2, density=0.8)
    gg = random_symbol(rng, 1, 1, density=0.8)
    alpha = Fraction(1, 7)
    product = star_elements(StarElement.lift(f), StarElement.lift(gg))
    clearing = nu_pochhammer(2).evaluate(alpha) * nu_pochhammer(1).evaluate(alpha)
    direct = star_at(f, gg, alpha).to_zpoly()
    via_elements = substitute(product, alpha).to_zpoly()
    # compare as functions: scale the reduced symbols to a common degree
    z = [g(1, 2), g(2, -1)]
    zbar = [v.conjugate() for v in z]
    x = sum((v * v.conjugate() for v in z), g(0))
    lhs = via_elements.evaluate(zbar, z)
    rhs = direct.evaluate(zbar, z) * clearing
    for _ in range(substitute(product, alpha).k):
        rhs = rhs * x
    for _ in range(star_at(f, gg, alpha).k):
        lhs = lhs * x
    assert lhs == rhs


def test_associativity_small():
    rng = random.Random(5)
    for n, degree in [(1, 2), (2, 1)]:
        a, b, c = (
            StarElement.lift(random_symbol(rng, n, rng.randint(1, degree), density=0.8))
            for _ in range(3)
        )
        assert star_elements(star_elements(a, b), c) == star_elements(a, star_elements(b, c))


def test_unit_element():
    rng = random.Random(6)
    one = StarElement.unit(1)
    a = random_element(rng, 1, 2, density=0.8)
    assert star_elements(one, a) == a
    assert star_elements(a, one) == a


def test_closed_power_form_small():
    rng = random.Random(7)
    for n, k, l in [(1, 1, 2), (1, 2, 2), (2, 1, 1), (1, 3, 2)]:
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        assert check_power_closed_form(a, b, k, l), (n, k, l)


def test_strong_invariance_fixed_example():
    matrix = [[g(0, 1), g(1, 1)], [g(-1, 1), g(0, -2)]]  # antihermitean
    rng = random.Random(8)
    phi = random_symbol(rng, 1, 2, density=0.9)
    assert check_strong_invariance(matrix, phi)


def test_strong_invariance_holds_for_any_matrix():
    # the first-order commutator identity is structural: it does not rely on
    # the matrix being antihermitean
    matrix = [[g(1), g(1)], [g(0), g(0)]]
    rng = random.Random(9)
    phi = random_symbol(rng, 1, 2, density=0.9)
    assert check_strong_invariance(matrix, phi)
    with pytest.raises(ValueError):
        check_strong_invariance(matrix, random_symbol(rng, 2, 1))


def test_embedding_independence_of_symbol_star():
    rng = random.Random(10)
    for n, k, l in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
        f = random_symbol(rng, n, k, density=0.8)
        gg = random_symbol(rng, n, l, density=0.8)
        degree = k + l + 2
        direct = star_symbols(f, gg).nrf_map(degree)
        grown = star_symbols(embed(f), embed(gg)).nrf_map(degree)
        assert direct == grown


def test_nrf_map_refuses_a_degree_under_k_plus_l():
    rng = random.Random(12)
    terms = star_symbols(random_symbol(rng, 1, 2, density=0.8), random_symbol(rng, 1, 2, density=0.8))
    for degree in (3, -1):
        with pytest.raises(ValueError, match=rf"k \+ l = 4, got {degree}"):
            terms.nrf_map(degree)
    assert terms.nrf_map(4) == terms.nrf_map()
    # a hand-built term above the requested degree
    tensor = SymbolTensor.basis_entry(1, 3, (0, 0, 1), (0, 1, 1))
    built = StarProductTerms(1, 1, 1, [StarTerm(0, NuRationalFunction.constant(1), tensor)])
    with pytest.raises(ValueError, match="at least 3, got 2"):
        built.nrf_map(2)


# -- raw series --------------------------------------------------------


def test_series_shape_validation():
    tensor = SymbolTensor.basis_entry(1, 1, (0,), (0,))
    with pytest.raises(ValueError):
        RawNuSeries(1, 2, {0: tensor})
    with pytest.raises(ValueError):
        RawNuSeries(1, 1, {-1: tensor})


def test_series_sums_refuse_other_operands():
    series = RawNuSeries(1, 1, {0: SymbolTensor.basis_entry(1, 1, (0,), (1,))})
    for other in (1, Fraction(1, 2), g(0, 1), SymbolTensor.zero(1, 1), StarElement.unit(1)):
        for call in (lambda: series + other, lambda: series - other, lambda: other + series, lambda: other - series):
            with pytest.raises(TypeError):
                call()
    with pytest.raises(ValueError, match="^series shapes differ$"):
        series + RawNuSeries(1, 2)


def test_series_shift_down_requires_divisibility():
    tensor = SymbolTensor.basis_entry(1, 1, (0,), (1,))
    with pytest.raises(ValueError):
        RawNuSeries(1, 1, {0: tensor}).shift_down()
    shifted = RawNuSeries(1, 1, {1: tensor}).shift_down()
    assert shifted == RawNuSeries(1, 1, {0: tensor})


# -- filtered elements -------------------------------------------------


def _prime_denominator_element(rng, n, level, primes, size=5, missing=()):
    """Element with ``size`` entries per component, each part over a prime
    drawn from ``primes``, or from ``primes[r]`` for component r when
    ``primes`` is a dict; the components in ``missing`` stay empty."""
    components = {}
    for r in range(level + 1):
        if r in missing:
            continue
        choices = primes[r] if isinstance(primes, dict) else primes
        slots = [(i, j) for i in sorted_tuples(n, r) for j in sorted_tuples(n, r)]
        components[r] = SymbolTensor(
            n,
            r,
            {
                key: g(Fraction(rng.choice([-2, -1, 1, 3]), rng.choice(choices)),
                       Fraction(rng.randint(-2, 2), rng.choice(choices)))
                for key in rng.sample(slots, min(size, len(slots)))
            },
        )
    return StarElement(n, level, components)


def _star_elements_oracle(left, right):
    """The closed formula summed with the literal contraction and tensor addition."""
    components = {}
    for r, phi in left.components.items():
        for s, psi in right.components.items():
            for t in range(min(r, s) + 1):
                piece = wick_contraction_reference(phi, psi, t).scale(Fraction(1, factorial(t)))
                index = r + s - t
                components[index] = components.get(index, SymbolTensor.zero(left.n, index)) + piece
    return StarElement(left.n, left.level + right.level, components)


def test_element_product_matches_contraction_oracle():
    rng = random.Random(22)
    # level 3 x level 3 runs t up to 3, where the weights T!/t! are 6, 6, 3, 1
    shapes = [(1, 3, 2), (1, 2, 3), (2, 2, 2), (2, 1, 3), (3, 2, 1), (3, 2, 2), (1, 3, 3), (2, 3, 3)]
    for n, la, lb in shapes:
        a = _prime_denominator_element(rng, n, la, (1, 2, 3, 5))
        b = _prime_denominator_element(rng, n, lb, (1, 7, 11))
        assert star_elements(a, b) == _star_elements_oracle(a, b), (n, la, lb)
        assert star_elements(b, a) == _star_elements_oracle(b, a), (n, lb, la)
    # one prime per component, so every component of a factor has its own
    # denominator and must be brought over the factor's common one; and a
    # factor whose middle component is missing
    for n in (1, 2):
        a = _prime_denominator_element(rng, n, 3, {0: (2,), 1: (3,), 2: (5,), 3: (7,)})
        b = _prime_denominator_element(rng, n, 3, {0: (11,), 1: (13,), 2: (17,), 3: (19,)}, missing=(1,))
        assert sorted(b.components) == [0, 2, 3]
        assert star_elements(a, b) == _star_elements_oracle(a, b), n
        assert star_elements(b, a) == _star_elements_oracle(b, a), n
    zero = StarElement(2, 2)
    assert star_elements(a, zero) == _star_elements_oracle(a, zero) == StarElement(2, 5)
    assert star_elements(zero, a) == StarElement(2, 5)


def test_element_product_drops_cancelled_terms():
    rng = random.Random(23)
    a = _prime_denominator_element(rng, 2, 2, (1, 2, 3))
    b = _prime_denominator_element(rng, 2, 2, (1, 5, 7))
    c = b.scale(g(-1))
    nothing = star_elements(a, b + c)
    assert nothing.is_zero() and nothing.components == {}
    # sigma(A) * (sigma(1 + B) - 1): the degree-1 part C_1 = sigma(A + AB)
    # loses sigma(A) to the constant's term, which cancels entry (0, 0) only
    matrix_a = [[g(1), g(Fraction(1, 2), 2)], [g(0), g(Fraction(3, 5))]]
    one_plus_b = [[g(1), g(0)], [g(0), g(Fraction(4, 3))]]
    product = [[g(0), g(Fraction(1, 6), Fraction(2, 3))], [g(0), g(Fraction(1, 5))]]  # A B
    left = StarElement.lift(symbol_of_matrix(matrix_a))
    right = StarElement(
        1, 1, {1: symbol_of_matrix(one_plus_b), 0: SymbolTensor.constant(1, -1)}
    )
    result = star_elements(left, right)
    assert result == _star_elements_oracle(left, right)
    assert result.components[1] == symbol_of_matrix(product)
    assert sorted(result.components) == [1, 2]


def test_element_component_validation():
    tensor = SymbolTensor.basis_entry(1, 1, (0,), (1,))
    with pytest.raises(ValueError):
        StarElement(1, 0, {1: tensor})
    with pytest.raises(ValueError):
        StarElement(1, 2, {2: tensor})  # degree-1 tensor at slot 2
    with pytest.raises(ValueError):
        StarElement(1, -1)
    # a negative n or degree is refused without any component to check it
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        StarElement(-1, 0)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        RawNuSeries(-1, 0)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        RawNuSeries(1, -4)
    assert StarElement(0, 0).is_zero() and RawNuSeries(0, 0).is_zero()


def test_relevel_preserves_expansion():
    # releveling rewrites the same function-valued series at a higher degree
    rng = random.Random(11)
    element = random_element(rng, 1, 2, density=0.8)
    grown = element.relevel(4)
    assert grown.level == 4
    assert grown.expand() == element.expand().embed_to(4)
    with pytest.raises(ValueError):
        element.relevel(1)


def test_addition_auto_relevels():
    rng = random.Random(12)
    a = random_element(rng, 1, 1, density=0.9)
    b = random_element(rng, 1, 3, density=0.9)
    total = a + b
    assert total.level == 3
    assert total.expand() == a.relevel(3).expand() + b.expand()


def test_nu_shift_raises_level():
    rng = random.Random(13)
    a = random_element(rng, 1, 2, density=0.9)
    shifted = a.nu_shift(2)
    assert shifted.level == 4
    assert shifted.components == a.components
    # the expansion picks up exactly a nu^2 factor
    assert shifted.expand() == times_nupoly(a.expand().embed_to(4), NuPolynomial((0, 0, 1)))
    with pytest.raises(ValueError):
        a.nu_shift(-1)


def test_extract_structure_round_trip():
    rng = random.Random(14)
    for n, level in [(1, 2), (1, 3), (2, 2)]:
        element = random_element(rng, n, level, density=0.8)
        recovered = extract_structure(element.expand(), level)
        assert recovered == element


def test_extract_structure_rejects_non_members():
    # nu * (a symbol that is not constant) alone has no level-1 structure:
    # the constant nu-coefficient of a level-1 element must carry component 0
    tensor = SymbolTensor.basis_entry(1, 1, (0,), (0,), g(1))
    series = RawNuSeries(1, 1, {0: tensor})
    assert extract_structure(series, 0) is None


def test_minimized_finds_least_level():
    rng = random.Random(15)
    element = random_element(rng, 1, 2, density=0.8)
    inflated = element.relevel(5)
    assert inflated.minimized() == element.minimized()
    assert element.minimized().level <= element.level


def test_minimized_of_zero():
    assert StarElement(1, 3).minimized() == StarElement.zero(1)


def test_substitution_of_lifted_symbol():
    rng = random.Random(16)
    f = random_symbol(rng, 1, 2, density=0.9)
    alpha = Fraction(1, 5)
    value = substitute(StarElement.lift(f), alpha)
    weight = nu_pochhammer(2).evaluate(alpha)
    from cpstar.symbols import reduce_to_min

    assert value == reduce_to_min(f.scale(weight))
