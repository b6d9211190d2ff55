"""The integer nu-coefficient kernel against the paths it replaced.

``StarProductTerms.nrf_map`` and ``disk_product`` sum Gaussian-integer
numerators over one common denominator and reduce each output entry once,
through ``NuRationalFunction._from_ints``.  The oracles here are the
summations they replaced, kept on purpose: the per-entry ``GaussRational``
sum of coefficient times entry, and the pairwise ``NuRationalFunction``
fold of the disk product.  Results must agree structurally: numerator,
monic denominator and the factors carried.  ``_from_ints`` itself is
checked against the Euclidean oracle of ``nu_helpers`` and the
constructor, and its stored integer form against the ``GaussRational``
build ``nupoly._reduced`` made before it returned that form; the
sorted-tuple merge of ``nupoly._sum`` is checked against the
``collections.Counter`` arithmetic it replaced.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

from cpstar.models.disk import DiskElement, disk_basis_coefficient, disk_product
from cpstar.nupoly import (
    NU_ONE,
    NU_ZERO,
    NuPolynomial,
    NuRationalFunction,
    _difference,
    _monic_product,
    _sum,
    _union,
    _widen_into,
)
from cpstar.randgen import random_scalar, random_symbol
from cpstar.scalars import GAUSS_ZERO, GaussRational
from cpstar.star import StarProductTerms, StarTerm, star_commutator, star_symbols
from cpstar.symbols import SymbolTensor, embed

from nu_helpers import euclid, expanded, linear, numerator_over, over_factors

I = GaussRational(0, 1)


def assert_same(value: NuRationalFunction, expected: NuRationalFunction) -> None:
    assert (value.num, value.den, value.js) == (expected.num, expected.den, expected.js)


def reference_nrf_map(terms: StarProductTerms, degree: int) -> dict:
    """Coefficient numerators times the ``entries`` view, summed entry by
    entry in ``GaussRational`` arithmetic over the full ``nu^(k) nu^(l)``,
    not the union of the coefficients' own factors that ``nrf_map`` sums
    over, with each tensor raised by ``embed``."""
    js = (*range(1, terms.k), *range(1, terms.l))
    numerators = [numerator_over(term.coefficient, js).coeffs for term in terms]
    width = max(map(len, numerators), default=0)
    sums: dict = {}
    for term, numerator in zip(terms, numerators):
        tensor = embed(term.tensor, degree - term.tensor.k)
        for key, value in tensor.entries.items():
            acc = sums.setdefault(key, [GAUSS_ZERO] * width)
            for m, c in enumerate(numerator):
                acc[m] = acc[m] + value * c
    out = {}
    for key, acc in sums.items():
        value = over_factors(NuPolynomial(acc), js)
        if value:
            out[key] = value
    return out


def assert_nrf_map_matches(terms: StarProductTerms, degree: int) -> dict:
    result = terms.nrf_map(degree)
    expected = reference_nrf_map(terms, degree)
    assert result.keys() == expected.keys()
    for key, value in result.items():
        assert_same(value, expected[key])
    return result


def test_nrf_map_matches_the_gauss_rational_sum():
    rng = random.Random(31)
    for _ in range(12):
        n, k, l = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
        f = random_symbol(rng, n, k, density=0.5)
        g = random_symbol(rng, n, l, density=0.5)
        for terms in (star_symbols(f, g), star_commutator(f, g)):
            assert_nrf_map_matches(terms, k + l + rng.randint(0, 1))
    # min(k, l) >= 3, where nu^(max(k, l)) is the most that cancels, at degrees past k + l + 1
    for n, k, l, extra in [(1, 3, 3, 2), (1, 4, 3, 3), (2, 3, 3, 2), (1, 3, 5, 4)]:
        f = random_symbol(rng, n, k, density=0.5)
        g = random_symbol(rng, n, l, density=0.5)
        for terms in (star_symbols(f, g), star_commutator(f, g)):
            assert assert_nrf_map_matches(terms, k + l + extra)
        # the commutator's term tensors cancel
        assert assert_nrf_map_matches(star_commutator(f, f), k + l + extra) == {}
        # an all-zero product
        zero = star_symbols(f, SymbolTensor.zero(n, l))
        assert zero.is_zero() and assert_nrf_map_matches(zero, k + l + extra) == {}


def test_nrf_map_with_a_complex_coefficient():
    rng = random.Random(32)
    f = random_symbol(rng, 2, 2, density=0.6)
    g = random_symbol(rng, 2, 1, density=0.6)
    terms = list(star_symbols(f, g))
    # a complex multiple of one coefficient, and a coefficient over part of nu^(2) nu^(1)
    twisted = StarTerm(terms[0].r, terms[0].coefficient * GaussRational(Fraction(2, 3), -1), terms[0].tensor)
    partial = over_factors(NuPolynomial((I, Fraction(1, 5))), (1,))
    extra = StarTerm(1, partial, terms[1].tensor.scale(GaussRational(1, 2)))
    built = StarProductTerms(2, 2, 1, [twisted, *terms[1:], extra])
    result = assert_nrf_map_matches(built, 3)
    assert any(not c.is_real for value in result.values() for c in value.num.coeffs)
    assert_nrf_map_matches(built, 4)
    # the extra factor first: the sum runs over the union of every term's factors
    assert StarProductTerms(2, 2, 1, [extra, twisted, *terms[1:]]).nrf_map(3) == result


def test_nrf_map_entries_that_cancel_to_zero():
    f = random_symbol(random.Random(33), 1, 2, density=0.8)
    terms = list(star_symbols(f, f))
    # i times the coefficient, i times the tensor: minus the term
    negated = [StarTerm(t.r, t.coefficient * I, t.tensor.scale(I)) for t in terms]
    everything = StarProductTerms(1, 2, 2, terms + negated)
    assert everything.nrf_map() == {} and reference_nrf_map(everything, 4) == {}
    partial = StarProductTerms(1, 2, 2, terms + negated[:-1])
    assert assert_nrf_map_matches(partial, 4)


def reference_disk_product(left: DiskElement, right: DiskElement) -> DiskElement:
    """The pairwise fold: every contribution added into its key in turn."""
    zero = NuRationalFunction.constant(0)
    out: dict = {}
    for (p, q), a in left.coeffs.items():
        for (r, s), b in right.coeffs.items():
            pair = a * b
            for m in range(min(q, r) + 1):
                key = (p + r - m, q + s - m)
                merged = out.get(key, zero) + pair * disk_basis_coefficient(q, r, s, m)
                if merged:
                    out[key] = merged
                else:
                    out.pop(key, None)
    return DiskElement(out)


def assert_disk_matches(left: DiskElement, right: DiskElement) -> DiskElement:
    product = disk_product(left, right)
    expected = reference_disk_product(left, right)
    assert product.coeffs.keys() == expected.coeffs.keys()
    for key, value in product.coeffs.items():
        assert_same(value, expected.coeffs[key])
    return product


def rebuilt(value: NuRationalFunction) -> NuRationalFunction:
    """The same value through the constructor, from its ``num`` and ``den``
    views, whose denominator it splits again."""
    return NuRationalFunction(value.num, value.den)


def random_factored(rng: random.Random, factors: int) -> NuRationalFunction:
    """Over ``factors`` linear factors, at most one of which cancels."""
    num = NuPolynomial((random_scalar(rng) or 1, random_scalar(rng) * Fraction(1, rng.randint(1, 3))))
    return over_factors(num, [rng.choice((-3, -2, -1, 1, 2)) for _ in range(factors)])


def random_coefficient(rng: random.Random) -> NuRationalFunction:
    kind = rng.randrange(5)
    if kind == 0:  # a complex Gaussian constant
        return NuRationalFunction.constant(random_scalar(rng) or I)
    if kind == 1:  # a rational weight
        return NuRationalFunction.constant(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 6)))
    if kind == 2:  # a basis weight times a complex scalar
        weight = disk_basis_coefficient(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3), 1)
        return weight * (random_scalar(rng) or I)
    factored = random_factored(rng, rng.randint(1, 3))
    return factored if kind == 3 else rebuilt(factored)


def random_disk_element(rng: random.Random, coefficient=random_coefficient) -> DiskElement:
    return DiskElement({(rng.randint(0, 3), rng.randint(0, 3)): coefficient(rng) for _ in range(rng.randint(1, 4))})


def test_disk_product_matches_the_pairwise_fold():
    rng = random.Random(34)
    for _ in range(40):
        left, right = random_disk_element(rng), random_disk_element(rng)
        assert_disk_matches(left, right)


def test_disk_product_of_rebuilt_coefficients_alone():
    rng = random.Random(35)
    for _ in range(8):
        factored = [random_factored(rng, 2) for _ in range(8)]
        assert all(rebuilt(c)._ints() == c._ints() for c in factored)
        left, right = (random_disk_element(rng, lambda rng: rebuilt(rng.choice(factored))) for _ in range(2))
        assert_disk_matches(left, right)


def test_disk_product_cancels_a_key_to_zero():
    for c1, c2 in [
        (NuRationalFunction.constant(GaussRational(2, -1)), disk_basis_coefficient(2, 1, 1, 1) * I),
        (rebuilt(over_factors(NuPolynomial((1, 3)), (-2, 1))), NuRationalFunction.constant(Fraction(3, 7))),
    ]:
        # f01 f10 reaches (0, 0) once contracted; f00 with the opposite weight cancels it
        c3 = -(c1 * c2 * disk_basis_coefficient(1, 1, 0, 1))
        left = DiskElement({(0, 1): c1, (0, 0): c3})
        right = DiskElement({(1, 0): c2, (0, 0): 1})
        product = assert_disk_matches(left, right)
        assert (0, 0) not in product.coeffs and (1, 1) in product.coeffs


def test_from_ints_is_canonical():
    rng = random.Random(36)
    cancelled = 0
    cases = [((), 1, (2,)), (((0, 0), (0, 0)), 3, (-1, 1))]
    for _ in range(200):
        js = tuple(rng.choice((-3, -2, -2, -1, 1, 1, 2, 3)) for _ in range(rng.randint(0, 5)))
        base = NuPolynomial(random_scalar(rng) for _ in range(rng.randint(1, 3)))
        for j in js:
            if rng.random() < 0.5:
                base = base * linear(j)
        den, nums = rng.randint(1, 12), []
        for c in base.coeffs:
            nums.append((int(c.re), int(c.im)))
        cases.append((nums, den, js))
    for nums, den, js in cases:
        value = NuRationalFunction._from_ints(nums, den, js)
        num = NuPolynomial(GaussRational(re, im) for re, im in nums)
        expected = euclid(num, expanded(js) * den)
        assert (value.num, value.den) == (expected.num, expected.den)
        assert_stored_form(value)
        built = NuRationalFunction(num, expanded(js) * den)  # the constructor splits the product again
        assert built._ints() == value._ints()
        assert list(value.js) == sorted(value.js) and 0 not in value.js
        assert value.den == expanded(value.js).monic()
        if value:
            for j in set(value.js):
                assert value.num.evaluate(Fraction(1, j))  # no kept root divides the numerator
        else:
            assert value.num == NU_ZERO and value.js == ()
        cancelled += len(value.js) < len(js)
    assert cancelled > 50


def assert_stored_form(value: NuRationalFunction) -> None:
    """The invariants of a factored value's one stored form: ints only, no
    trailing zero pair, ``den > 0`` and coprime to every part, sorted ``js``;
    zero is ``((), 1, ())``."""
    nums, den, js = value._ints()
    assert type(nums) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in nums)
    assert all(type(part) is int for pair in nums for part in pair)
    assert type(den) is int and den > 0 and all(type(j) is int for j in js)
    assert list(js) == sorted(js)
    if nums:
        assert nums[-1] != (0, 0)
        assert gcd(den, *(part for pair in nums for part in pair)) == 1
    else:
        assert (den, js) == (1, ())


def reduced_oracle(nums, den, js) -> tuple[NuPolynomial, NuPolynomial, tuple[int, ...]]:
    """The ``GaussRational`` build the form replaced: the same synthetic
    division, then ``num`` over ``den prod(-j)`` and the monic ``den``."""
    nums = list(nums)
    while nums and not (nums[-1][0] or nums[-1][1]):
        nums.pop()
    if not nums:
        return NU_ZERO, NU_ONE, ()
    kept: list[int] = []
    for j in sorted(js):
        if kept and kept[-1] == j:
            kept.append(j)
            continue
        quotient = []
        q_re = q_im = 0
        for re, im in nums:
            q_re = re + j * q_re
            q_im = im + j * q_im
            quotient.append((q_re, q_im))
        if q_re or q_im:
            kept.append(j)
        else:
            quotient.pop()
            nums = quotient
    js = tuple(kept)
    lead = den * prod(-j for j in js)
    num = NuPolynomial(GaussRational(Fraction(re, lead), Fraction(im, lead)) for re, im in nums)
    return num, _monic_product(js), js


def seeded_forms(rng: random.Random):
    """Integer forms with complex parts and repeated js of either sign, whose
    numerators are often multiples of some of their factors: no, some or
    every factor cancels.  Zero and a padded zero come first."""
    yield (), 1, (1, 2)
    yield ((0, 0), (0, 0)), 6, (-1, -1)
    for _ in range(300):
        js = tuple(rng.choice((-4, -3, -2, -1, -1, 1, 1, 2, 2, 3)) for _ in range(rng.randint(0, 6)))
        nums = [(rng.randint(-9, 9), rng.randint(-9, 9) * rng.randint(0, 1)) for _ in range(rng.randint(1, 3))]
        cancel = rng.random()
        for j in js:
            if rng.random() < cancel:
                nums = [(a - j * b, c - j * d) for (a, c), (b, d) in zip(nums + [(0, 0)], [(0, 0)] + nums)]
        scale = rng.choice((1, 1, 2, 6, -3))
        nums = [(a * scale, c * scale) for a, c in nums] + [(0, 0)] * rng.randint(0, 1)
        yield nums, rng.randint(1, 40), js


def test_stored_form_views_match_the_gauss_rational_build():
    rng = random.Random(37)
    cancelled = complete = partial = complex_parts = negative = 0
    for nums, den, js in seeded_forms(rng):
        value = NuRationalFunction._from_ints(nums, den, js)
        assert_stored_form(value)
        num, monic, kept = reduced_oracle(nums, den, js)
        assert (value.num, value.den, value.js) == (num, monic, kept)
        if value and len(kept) < len(js):
            cancelled += 1
            complete += not kept
            partial += bool(kept)
        complex_parts += any(im for _, im in nums)
        negative += any(j < 0 for j in kept) and len(set(kept)) < len(kept)
    assert min(cancelled, complete, partial, complex_parts, negative) > 10, (
        cancelled, complete, partial, complex_parts, negative
    )


def counter_sum(terms) -> NuRationalFunction:
    """The ``Counter`` multiset arithmetic ``_sum`` used before its merge of
    sorted tuples."""
    terms = list(terms)
    common: Counter = Counter()
    for _, _, js in terms:
        common |= Counter(js)
    den = lcm(*(d for _, d, _ in terms))
    size = sum(common.values())
    total = [[0, 0] for _ in range(max(len(nums) + size - len(js) for nums, _, js in terms))]
    for nums, d, js in terms:
        _widen_into(total, nums, den // d, tuple(sorted((common - Counter(js)).elements())))
    return NuRationalFunction._from_ints(total, den, tuple(common.elements()))


def test_sorted_merges_match_counter_arithmetic():
    rng = random.Random(38)
    for _ in range(400):
        a, b = (tuple(sorted(rng.choice((-2, -1, 1, 1, 2, 3)) for _ in range(rng.randint(0, 5)))) for _ in range(2))
        union = _union(a, b)
        assert Counter(union) == Counter(a) | Counter(b) and list(union) == sorted(union)
        difference = _difference(a, b)
        if Counter(b) - Counter(a):
            assert difference is None
        else:
            assert Counter(difference) == Counter(a) - Counter(b) and list(difference) == sorted(difference)
    forms = [form for form in seeded_forms(rng)]
    for _ in range(150):
        terms = [NuRationalFunction._from_ints(*rng.choice(forms))._ints() for _ in range(rng.randint(1, 4))]
        total = _sum(terms)
        assert_stored_form(total)
        assert total == counter_sum(terms)
