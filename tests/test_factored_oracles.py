"""Factored denominators against the Euclidean oracle.

A :class:`NuRationalFunction` stores a denominator that is a product of
linear factors ``1 - j nu``, and adds and multiplies by cancelling at the
roots ``1/j``.  Every result here is compared with the Euclidean route of
``nu_helpers``, which builds the same value from expanded polynomials and
reduces it by a gcd over Q(i): the two must agree structurally (numerator
and monic denominator), and the factors a result carries must expand to its
denominator.  The constructor and the JSON loader, which split a
denominator, must give back the stored form of the value they are fed, and
refuse a denominator that does not split.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from cpstar.models.disk import DiskElement, disk_basis_coefficient, disk_product, neg_nu_pochhammer
from cpstar.nupoly import NRF_ZERO, NU_ONE, NuPolynomial, NuRationalFunction, _reduced
from cpstar.randgen import random_scalar, random_symbol
from cpstar.scalars import GaussRational
from cpstar.serialize import disk_from_json, disk_to_json
from cpstar.star import StarProductTerms, StarTerm, star_commutator, star_symbols
from cpstar.symbols import embed

from nu_helpers import euclid, euclid_product, euclid_sum, expanded, linear, numerator_over, over_factors

SPLIT_FREE = NuPolynomial((1, 0, 1))  # 1 + nu^2 has no rational root


def assert_canonical(value: NuRationalFunction, expected) -> None:
    assert value.num == expected.num and value.den == expected.den
    assert list(value.js) == sorted(value.js) and 0 not in value.js
    assert value.den == expanded(value.js).monic()


def random_poly(rng: random.Random, degree: int) -> NuPolynomial:
    return NuPolynomial(random_scalar(rng) * Fraction(1, rng.randint(1, 4)) for _ in range(degree + 1))


def random_factored(rng: random.Random) -> tuple[NuRationalFunction, NuPolynomial, tuple[int, ...]]:
    """A factored coefficient whose numerator often vanishes at some 1/j, with
    multiplicity; returns it with the numerator and factors it was built from."""
    js = tuple(rng.choice((-3, -2, -1, 1, 1, 2, 2, 3)) for _ in range(rng.randint(0, 5)))
    num = random_poly(rng, rng.randint(0, 2))
    for j in js:
        if rng.random() < 0.4:
            num = num * linear(j)
    return over_factors(num, js), num, js


def test_over_factors_matches_the_generic_constructor():
    rng = random.Random(11)
    cancelled = 0
    for _ in range(200):
        value, num, js = random_factored(rng)
        assert_canonical(value, euclid(num, expanded(js)))
        cancelled += len(value.js) < len(js)
    assert cancelled > 40  # the seed exercises cancellation, repeated factors included
    repeated = over_factors(linear(2) * linear(2) * linear(-1), (2, 2, 2, -1, 3))
    assert repeated.js == (2, 3)
    assert_canonical(repeated, euclid(NU_ONE, linear(2) * linear(3)))


def test_factored_sums_and_products_match_euclid():
    rng = random.Random(12)
    samples = [random_factored(rng)[0] for _ in range(40)]
    for a in samples:
        for b in rng.sample(samples, 8):
            assert_canonical(a + b, euclid_sum(a, b))
            assert_canonical(a - b, euclid_sum(a, -b))
            assert_canonical(a * b, euclid_product(a, b))
        scale = random_scalar(rng)
        assert_canonical(a * scale, euclid(a.num * scale, a.den))
        poly = random_poly(rng, 2) * linear(rng.choice((1, 2, 3)))
        assert_canonical(a * poly, euclid(a.num * poly, a.den))


def test_factored_results_that_cancel():
    a = over_factors(NuPolynomial((3, 1)), (1, 2, 2))
    assert_canonical(a - a, euclid(NuPolynomial(), NU_ONE))
    assert (a - a).js == ()
    # the same value over more factors cancels back to a, and their difference to zero
    wider = over_factors(NuPolynomial((3, 1)) * linear(5) * linear(-1), (-1, 1, 2, 2, 5))
    assert_canonical(wider, a)
    assert not (a - wider) and (a - wider).js == ()
    # cross cancellation: (1 - 2 nu) / (1 - 3 nu) times its inverse
    up = over_factors(linear(2), (3,))
    down = over_factors(linear(3), (2,))
    assert_canonical(up * down, euclid(NU_ONE, NU_ONE))
    assert (up * down).js == ()
    # a sum whose numerator gains the root 1/2 twice
    half = over_factors(NuPolynomial((1,)), (2, 2))
    rest = over_factors(linear(2) * linear(2) - NU_ONE, (2, 2))
    assert_canonical(half + rest, euclid(NU_ONE, NU_ONE))


def test_unsplit_denominators_are_refused():
    # what the Euclidean oracle reduces, the constructor and the loader refuse
    rng = random.Random(13)
    for _ in range(40):
        num = random_poly(rng, 2) * linear(rng.choice((1, 2)))
        den = SPLIT_FREE * linear(rng.choice((1, 2)))
        assert euclid(num, den).den.degree >= 2
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction(num, den)
        with pytest.raises(ValueError, match="does not split"):
            NuRationalFunction.from_json({"num": num.to_json(), "den": den.to_json()})


def test_numerator_ints_inverts_over_factors():
    rng = random.Random(14)
    for _ in range(60):
        value, _, js = random_factored(rng)
        wider = tuple(sorted(js + tuple(rng.choice((1, 2, -2)) for _ in range(rng.randint(0, 2)))))
        den, nums = value._numerator_ints(wider)
        assert NuRationalFunction._from_ints(nums, den, wider)._ints() == value._ints()
        assert_canonical(over_factors(numerator_over(value, wider), wider), value)
    with pytest.raises(ValueError):
        over_factors(NU_ONE, (2,))._numerator_ints((1, 3))
    with pytest.raises(ValueError):
        numerator_over(over_factors(NU_ONE, (2,)), (1, 3))


def generic_nrf_map(terms: StarProductTerms, degree: int) -> dict:
    """The term-by-term sum of coefficient times entry, all on the Euclid path."""
    out: dict = {}
    for term in terms:
        coefficient = euclid(term.coefficient.num, term.coefficient.den)
        tensor = embed(term.tensor, degree - term.tensor.k)
        for key, value in tensor.entries.items():
            contrib = euclid_product(coefficient, euclid(NuPolynomial.constant(value), NU_ONE))
            out[key] = euclid_sum(out[key], contrib) if key in out else contrib
    return {key: value for key, value in out.items() if value.num}


# (n, degree f, degree g)
NRF_SHAPES = [(1, 0, 2), (1, 1, 2), (1, 2, 2), (1, 3, 1), (2, 1, 1), (2, 2, 1)]


@pytest.mark.parametrize("n, k, l", NRF_SHAPES)
def test_nrf_map_matches_generic_sum(n, k, l):
    rng = random.Random(100 * n + 10 * k + l)
    f = random_symbol(rng, n, k, density=0.6)
    g = random_symbol(rng, n, l, density=0.6)
    degree = k + l + 2
    base = star_symbols(f, g).nrf_map(degree)
    # the lifted product has the larger denominator nu^(k+1) nu^(l+1), which cancels back down
    lifted = star_symbols(embed(f), embed(g))
    for terms in (star_symbols(f, g), lifted, star_commutator(f, g)):
        result = terms.nrf_map(degree)
        expected = generic_nrf_map(terms, degree)
        assert result.keys() == expected.keys()
        for key, value in result.items():
            assert_canonical(value, expected[key])
    assert lifted.nrf_map(degree) == base
    assert star_commutator(f, f).nrf_map(degree) == {}


def test_nrf_map_cancels_entries_to_zero():
    f = random_symbol(random.Random(7), 1, 2, density=0.8)
    terms = star_symbols(f, f)
    negated = [StarTerm(t.r, t.coefficient, t.tensor.scale(GaussRational(-1))) for t in terms]
    everything = StarProductTerms(terms.n, terms.k, terms.l, list(terms) + negated)
    assert everything.nrf_map() == {}
    # all terms but the last cancel: left is the last term, over 1 - nu alone
    partial = StarProductTerms(terms.n, terms.k, terms.l, list(terms) + negated[:-1])
    result = partial.nrf_map()
    expected = generic_nrf_map(partial, terms.k + terms.l)
    assert result and result.keys() == expected.keys()
    for key, value in result.items():
        assert_canonical(value, expected[key])
        assert value.js == (1,)


def euclid_disk_weight(q: int, r: int, s: int, m: int):
    scale = Fraction(factorial(q) * factorial(r), factorial(m) * factorial(q - m) * factorial(r - m))
    return euclid(
        NuPolynomial.nu_power(m) * neg_nu_pochhammer(q + s - m) * scale,
        neg_nu_pochhammer(q) * neg_nu_pochhammer(s),
    )


def euclid_disk_product(left: DiskElement, right: DiskElement) -> dict:
    """The disk product with every coefficient built and combined by Euclid."""
    out: dict = {}
    for (p, q), a in left.coeffs.items():
        for (r, s), b in right.coeffs.items():
            pair = euclid_product(a, b)
            for m in range(min(q, r) + 1):
                key = (p + r - m, q + s - m)
                term = euclid_product(pair, euclid_disk_weight(q, r, s, m))
                out[key] = euclid_sum(out[key], term) if key in out else term
    return {key: value for key, value in out.items() if value.num}


def random_disk_coefficient(rng: random.Random) -> NuRationalFunction:
    kind = rng.randrange(3)
    if kind == 0:
        return NuRationalFunction.constant(random_scalar(rng))
    if kind == 1:
        return disk_basis_coefficient(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3), 1)
    # factors that no disk weight has
    return over_factors(random_poly(rng, 1), rng.sample((-5, -3, 2, 5, 7), 2))


def test_disk_product_matches_euclid_with_foreign_factors():
    rng = random.Random(15)
    for _ in range(12):
        left, right = (
            DiskElement({(rng.randint(0, 3), rng.randint(0, 3)): random_disk_coefficient(rng) for _ in range(3)})
            for _ in range(2)
        )
        product = disk_product(left, right)
        expected = euclid_disk_product(left, right)
        assert product.coeffs.keys() == expected.keys()
        for key, value in product.coeffs.items():
            assert_canonical(value, expected[key])
    for q in range(4):
        for r in range(4):
            for s in range(4):
                for m in range(min(q, r) + 1):
                    assert_canonical(disk_basis_coefficient(q, r, s, m), euclid_disk_weight(q, r, s, m))


def test_factored_and_loaded_values_compare_and_hash_alike():
    rng = random.Random(16)
    samples = [random_factored(rng)[0] for _ in range(60)]
    samples += [disk_basis_coefficient(3, 2, 1, 1), NuRationalFunction.constant(GaussRational(2, -3)), NRF_ZERO]
    for value in samples:
        # the loader and the constructor recover the factors, to the same stored form
        assert NuRationalFunction.from_json(value.to_json())._ints() == value._ints()
        loaded = NuRationalFunction(value.num, value.den)
        assert loaded._ints() == value._ints()
        assert loaded == value and value == loaded
        assert hash(loaded) == hash(value)
        nums, den, js = value._ints()
        for m in range(len(nums)):
            for part in (0, 1):
                changed = list(nums)
                pair = list(changed[m])
                pair[part] += den
                changed[m] = tuple(pair)
                other = NuRationalFunction._from_ints(changed, den, js)
                assert other != value and value != other
                assert other != loaded and loaded != other


def test_negation_flips_the_stored_form():
    rng = random.Random(18)
    samples = [random_factored(rng)[0] for _ in range(40)]
    samples += [disk_basis_coefficient(3, 3, 3, 2), NuRationalFunction.constant(GaussRational(2, -3)), NRF_ZERO]
    samples += [NuRationalFunction(value.num, value.den) for value in samples]
    for value in samples:
        negated = -value
        expected = value * -1
        assert negated == expected and negated.js == expected.js
        assert_canonical(negated, euclid(-value.num, value.den))
        assert negated._ints() == expected._ints() == _reduced(*negated._ints())
        assert -negated == value
    assert not -NRF_ZERO and (-NRF_ZERO)._ints() == ((), 1, ())


def test_disk_elements_equal_their_json_round_trip():
    rng = random.Random(17)
    for _ in range(12):
        left, right = (
            DiskElement({(rng.randint(0, 3), rng.randint(0, 3)): random_disk_coefficient(rng) for _ in range(3)})
            for _ in range(2)
        )
        product = disk_product(left, right)
        loaded = disk_from_json(disk_to_json(product))
        assert loaded == product and product == loaded
        assert hash(loaded) == hash(product)


def test_disk_elements_fill_missing_keys_with_the_shared_zero(monkeypatch):
    a = DiskElement({(0, 1): disk_basis_coefficient(1, 1, 1, 1), (2, 0): 3})
    b = DiskElement({(1, 1): GaussRational(0, 1), (2, 0): -3})

    def refused(cls, value):
        raise AssertionError("a fresh zero was built for a missing key")

    monkeypatch.setattr(NuRationalFunction, "constant", classmethod(refused))
    assert a.coefficient(5, 5) is NRF_ZERO
    assert (a + b).coeffs.keys() == {(0, 1), (1, 1)}
    assert (a - b).coefficient(2, 0) == NuRationalFunction(NuPolynomial.constant(6))
    assert (b - a).coefficient(0, 1) == -a.coefficient(0, 1)
