"""Symbol tensors: convention, contraction kernel, oracle equivalence."""

import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from cpstar import symbols
from cpstar.linalg import linear_solve
from cpstar.multiindex import MAX_WIDTH_BITS, multiplicity, sorted_tuples
from cpstar.quotient import quotient_map, representative_element, substitute
from cpstar.randgen import random_element, random_symbol
from cpstar.scalars import GAUSS_I, GAUSS_ZERO, GaussRational
from cpstar.star import StarElement, star_elements
from cpstar.symbols import (
    SymbolTensor,
    embed,
    eval_symbol,
    identity_symbol,
    operator_product,
    pointwise_mul,
    reduce_degree,
    reduce_to_min,
    symbol_of_matrix,
    wick_contraction,
    wick_contraction_reference,
)
from cpstar.zpoly import ZPoly


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def conjugate_swap(tensor):
    """Tensor of the complex-conjugated symbol: the index groups of each
    cell swapped and its imaginary part negated."""
    width = comb(tensor.n + tensor.k, tensor.k)
    cells = {}
    for key, (re, im) in tensor.cells.items():
        left, right = divmod(key, width)
        cells[right * width + left] = (re, -im)
    return SymbolTensor._from_cells(tensor.n, tensor.k, tensor.den, cells)


def test_constructor_validates_entries():
    with pytest.raises(ValueError):
        SymbolTensor(1, 1, {((0, 0), (0,)): g(1)})  # wrong index length
    with pytest.raises(ValueError):
        SymbolTensor(1, 1, {((2,), (0,)): g(1)})  # letter out of range
    with pytest.raises(ValueError):
        SymbolTensor(1, 2, {((1, 0), (0, 0)): g(1)})  # unsorted representative
    assert SymbolTensor(1, 1, {((0,), (0,)): g(0)}).is_zero()  # zeros dropped


def _key(n, k, left, right):
    """The cell key ``rank(I) W + rank(J)`` of a sorted pair, read through
    the rank table."""
    ranks = symbols._ranks(n, k)
    return ranks[left] * comb(n + k, k) + ranks[right]


def test_cell_keys_are_lex_ranks():
    # W = C(n + k, k) sorted k-tuples; the key of (I, J) is rank(I) W + rank(J)
    assert [_key(1, 2, i, j) for i in sorted_tuples(1, 2) for j in sorted_tuples(1, 2)] == list(range(9))
    assert _key(2, 3, (0, 0, 1), (0, 1, 2)) == 1 * 10 + 4
    assert _key(3, 0, (), ()) == 0
    for n, k in [(1, 3), (2, 2), (3, 2)]:
        unranked = symbols._unranked(n, k)
        for i in sorted_tuples(n, k):
            for j in sorted_tuples(n, k):
                assert unranked[_key(n, k, i, j)] == (i, j, multiplicity(i) * multiplicity(j))


def test_wide_shapes_are_refused_before_the_tuples_are_counted():
    # C(n + k, k) >= 2**min(n, k): CP^1000000 at degree 1000 is refused
    # without computing it, at degree 40 after; degree 13 keys its cell
    for k in (1000, 40):
        with pytest.raises(ValueError, match=f"over 2\\*\\*{MAX_WIDTH_BITS} sorted index tuples"):
            SymbolTensor(10**6, k, {((0,) * k, (10**6,) * k): 1})
    assert SymbolTensor(10**6, 10**6).is_zero()
    left, right = (0, 5, 999_999) + (10**6,) * 10, (7,) * 13
    tensor = SymbolTensor(10**6, 13, {(left, right): Fraction(1, 3)})
    assert comb(10**6 + 13, 13).bit_length() <= MAX_WIDTH_BITS
    assert tensor.entries == {(left, right): GaussRational(Fraction(1, 3))}
    assert conjugate_swap(tensor).entries == {(right, left): GaussRational(Fraction(1, 3))}


def test_constructor_cells_over_least_denominator():
    # the multiplicity weights cancel entry denominators: 1/2 at (01, 00)
    # is the coefficient 1/2 * 2 * 1 = 1
    tensor = SymbolTensor(1, 2, {((0, 1), (0, 0)): Fraction(1, 2)})
    assert (tensor.den, tensor.cells) == (1, {_key(1, 2, (0, 1), (0, 0)): (1, 0)})
    # mult((0, 0, 1)) mult((0, 1, 2)) = 3 * 6 cancels the 9 and the 2
    tensor = SymbolTensor(2, 3, {((0, 0, 1), (0, 1, 2)): g(Fraction(1, 9), Fraction(-1, 2))})
    assert (tensor.den, tensor.cells) == (1, {_key(2, 3, (0, 0, 1), (0, 1, 2)): (2, -9)})
    # complex parts over distinct primes: the coefficients are 2/3 + 4/5 i
    # (weight 2) and -3/7 + 1/2 i, over lcm(3, 5, 7, 2) = 210
    entries = {
        ((0, 0), (0, 1)): g(Fraction(1, 3), Fraction(2, 5)),
        ((1, 1), (1, 1)): g(Fraction(-3, 7), Fraction(1, 2)),
    }
    tensor = SymbolTensor(1, 2, entries)
    cells = {_key(1, 2, (0, 0), (0, 1)): (140, 168), _key(1, 2, (1, 1), (1, 1)): (-90, 105)}
    assert (tensor.den, tensor.cells) == (210, cells)
    assert tensor.entries == entries
    _assert_canonical(tensor)
    # a common factor of every part and the lcm is divided out
    tensor = SymbolTensor(1, 1, {((0,), (0,)): Fraction(2, 3), ((0,), (1,)): g(0, Fraction(4, 3))})
    assert (tensor.den, tensor.cells) == (3, {_key(1, 1, (0,), (0,)): (2, 0), _key(1, 1, (0,), (1,)): (0, 4)})
    tensor = SymbolTensor(1, 2, {((0, 1), (0, 1)): Fraction(3, 4), ((0, 0), (1, 1)): g(0, Fraction(1, 2))})
    assert (tensor.den, tensor.cells) == (2, {_key(1, 2, (0, 1), (0, 1)): (6, 0), _key(1, 2, (0, 0), (1, 1)): (0, 1)})
    zero = SymbolTensor(2, 2, {((0, 0), (1, 1)): g(0)})
    assert (zero.den, zero.cells) == (1, {})


def test_linear_structure():
    a = SymbolTensor.basis_entry(1, 1, (0,), (1,), g(2))
    b = SymbolTensor.basis_entry(1, 1, (0,), (1,), g(-2))
    assert (a + b).is_zero()
    assert a - a == SymbolTensor.zero(1, 1)
    assert a.scale(Fraction(1, 2)).entries == {((0,), (1,)): g(1)}
    assert (-a).entries == {((0,), (1,)): g(-2)}
    with pytest.raises(ValueError):
        a + SymbolTensor.zero(1, 2)


def test_conjugate_swap_involution():
    a = SymbolTensor(1, 1, {((0,), (1,)): g(2, 3)})
    swapped = conjugate_swap(a)
    assert swapped.entries == {((1,), (0,)): g(2, -3)}
    assert conjugate_swap(swapped) == a


def test_multiplicity_convention_round_trip():
    # the stored entry at a repeated index differs from the polynomial
    # coefficient by the product of index multiplicities
    tensor = SymbolTensor(1, 2, {((0, 1), (0, 1)): g(1, 0)})
    poly = dict(tensor.poly_items())
    assert poly == {((0, 1), (0, 1)): g(4)}
    assert SymbolTensor.from_zpoly(1, 2, tensor.to_zpoly()) == tensor


def test_symbol_of_matrix():
    matrix = [[g(1), g(2, 1)], [g(0), g(-1)]]
    tensor = symbol_of_matrix(matrix)
    assert tensor.n == 1 and tensor.k == 1
    assert tensor.entries == {
        ((0,), (0,)): g(1),
        ((0,), (1,)): g(2, 1),
        ((1,), (1,)): g(-1),
    }
    with pytest.raises(ValueError):
        symbol_of_matrix([[g(1), g(2)]])


def test_eval_symbol_matches_polynomial_expansion():
    # the symbol value is the bihomogeneous polynomial divided by x**k
    rng = random.Random(11)
    for n, k in [(1, 1), (1, 2), (2, 2)]:
        tensor = random_symbol(rng, n, k, density=0.8)
        z = [g(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(n + 1)]
        zbar = [v.conjugate() for v in z]
        x = sum((v * v.conjugate() for v in z), g(0))
        scale = g(1)
        for _ in range(k):
            scale = scale * x
        assert eval_symbol(tensor, z) * scale == tensor.to_zpoly().evaluate(zbar, z)


def test_identity_symbol_is_unit_for_composition():
    for n, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        one = identity_symbol(n, k)
        rng = random.Random(n * 10 + k)
        a = random_symbol(rng, n, k, density=0.8)
        assert operator_product(one, a) == a
        assert operator_product(a, one) == a


def test_operator_product_is_associative():
    rng = random.Random(3)
    for n, k in [(1, 2), (2, 1)]:
        a, b, c = (random_symbol(rng, n, k, density=0.8) for _ in range(3))
        left = operator_product(operator_product(a, b), c)
        right = operator_product(a, operator_product(b, c))
        assert left == right


def test_operator_product_matches_matrix_product():
    a = [[g(1), g(2)], [g(3, 1), g(0)]]
    b = [[g(0, 1), g(1)], [g(1), g(-2)]]
    ab = [
        [sum((a[i][m] * b[m][j] for m in range(2)), g(0)) for j in range(2)]
        for i in range(2)
    ]
    assert operator_product(symbol_of_matrix(a), symbol_of_matrix(b)) == symbol_of_matrix(ab)


def test_contraction_order_zero_is_pointwise():
    # the oracle multiplies the expanded polynomials, apart from the kernel
    rng = random.Random(7)
    for n, k, l in [(1, 2, 1), (1, 0, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2)]:
        a = _prime_denominator_symbol(rng, n, k, (1, 2, 3, 5), (1, 3, 7))
        b = _prime_denominator_symbol(rng, n, l, (1, 3, 11), (1, 13))
        expected = SymbolTensor.from_zpoly(n, k + l, a.to_zpoly() * b.to_zpoly())
        assert pointwise_mul(a, b) == expected, (n, k, l)
        assert pointwise_mul(b, a) == expected, (n, l, k)
        assert wick_contraction(a, b, 0) == expected, (n, k, l)
    assert pointwise_mul(a, SymbolTensor.zero(3, 1)) == SymbolTensor.zero(3, 2)


def test_full_contraction_is_scaled_composition():
    rng = random.Random(8)
    for n in (1, 2):
        for K in (1, 2):
            a = random_symbol(rng, n, K, density=0.9)
            b = random_symbol(rng, n, K, density=0.9)
            expected = operator_product(a, b).scale(factorial(K) ** 2)
            assert wick_contraction(a, b, K) == expected


def test_contraction_against_reference_oracle():
    rng = random.Random(9)
    for n in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                a = random_symbol(rng, n, k, density=0.7)
                b = random_symbol(rng, n, l, density=0.7)
                for r in range(min(k, l) + 1):
                    fast = wick_contraction(a, b, r)
                    slow = wick_contraction_reference(a, b, r)
                    assert fast == slow, (n, k, l, r)


def _prime_denominator_symbol(rng, n, k, re_primes, im_primes, size=6):
    """``size`` random entries whose parts have denominators drawn from
    the given primes, so the common denominator of the tensor is their lcm."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    entries = {}
    for key in rng.sample(slots, min(size, len(slots))):
        entries[key] = g(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(re_primes)),
            Fraction(rng.randint(-3, 3), rng.choice(im_primes)),
        )
    return SymbolTensor(n, k, entries)


def test_integer_kernel_matches_oracle_with_distinct_denominators():
    # the two factors get different common denominators (lcm 2*3*5*7 and
    # 3*11*13), each smaller than the product of its entries' denominators
    rng = random.Random(21)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                a = _prime_denominator_symbol(rng, n, k, (1, 2, 3, 5), (1, 3, 7))
                b = _prime_denominator_symbol(rng, n, l, (1, 3, 11), (1, 13))
                for r in range(min(k, l) + 1):
                    fast = wick_contraction(a, b, r)
                    slow = wick_contraction_reference(a, b, r)
                    assert fast == slow, (n, k, l, r)
                    assert wick_contraction(b, a, r) == wick_contraction_reference(b, a, r), (n, l, k, r)


def test_contraction_degenerate_orders():
    a = SymbolTensor.basis_entry(1, 1, (0,), (0,))
    b = SymbolTensor.basis_entry(1, 1, (1,), (1,))
    with pytest.raises(ValueError):
        wick_contraction(a, b, 2)
    with pytest.raises(ValueError):
        wick_contraction(a, b, -1)


def test_embed_multiplies_polynomial_by_radius():
    # embedding multiplies sigma-tilde by x = sum_i |z_i|^2, which leaves
    # the symbol value unchanged
    rng = random.Random(13)
    tensor = random_symbol(rng, 1, 2, density=0.8)
    z = [g(2, 1), g(-1, 3)]
    zbar = [v.conjugate() for v in z]
    x = sum((v * v.conjugate() for v in z), g(0))
    grown = embed(tensor)
    assert grown.to_zpoly().evaluate(zbar, z) == tensor.to_zpoly().evaluate(zbar, z) * x
    assert eval_symbol(grown, z) == eval_symbol(tensor, z)
    assert embed(tensor, 0) == tensor
    assert embed(tensor, 2).k == 4


def test_reduce_degree_inverts_embed():
    rng = random.Random(14)
    for n, k in [(1, 1), (1, 2), (2, 1)]:
        tensor = random_symbol(rng, n, k, density=0.8)
        assert reduce_degree(embed(tensor)) == tensor
        again = embed(tensor, 2)
        assert reduce_to_min(again) == reduce_to_min(tensor)


def test_reduce_degree_returns_none_off_image():
    # z0 zbar0 alone is not x times a degree-0 symbol
    tensor = SymbolTensor.basis_entry(1, 1, (0,), (0,))
    assert reduce_degree(tensor) is None
    assert reduce_to_min(tensor) == tensor


def _dense_reduce_degree(tensor):
    """Oracle for reduce_degree: solve embed(q) == tensor for q over the whole
    degree-(k-1) basis with the general dense solver."""
    n, k = tensor.n, tensor.k
    rows = [(left, right) for left in sorted_tuples(n, k) for right in sorted_tuples(n, k)]
    cols = [(left, right) for left in sorted_tuples(n, k - 1) for right in sorted_tuples(n, k - 1)]
    images = [embed(SymbolTensor(n, k - 1, {col: 1})).entries for col in cols]
    matrix = [[image.get(row, GAUSS_ZERO) for image in images] for row in rows]
    entries = tensor.entries
    solved = linear_solve(matrix, [entries.get(row, GAUSS_ZERO) for row in rows])
    if solved.kind == "inconsistent":
        return None
    assert solved.kind == "unique"  # multiplying by x is injective
    return SymbolTensor(n, k - 1, dict(zip(cols, solved.solution)))


def test_reduce_degree_matches_dense_oracle():
    # the dense system has C(n+k, k)**2 rows, so CP^2 stops at degree 4 and
    # CP^3 at degree 3 to keep the oracle within seconds
    rng = random.Random(16)
    for n, top in [(1, 5), (2, 4), (3, 3)]:
        # x with its term zbar_0 z_0 turned into zbar_0 z_1: in the order of
        # reduce_degree the lead monomial lacks 0 in its holomorphic group (in
        # its antiholomorphic group after conjugate_swap), and subtracting
        # the rest of x would cancel everything else
        skewed_x = SymbolTensor(n, 1, {((0,), (1,)): 1, **{((a,), (a,)): 1 for a in range(1, n + 1)}})
        for k in range(1, top + 1):
            times = rng.randint(1, k)
            base = random_symbol(rng, n, k - times, density=0.6)
            divisible = embed(base, times)
            padding = SymbolTensor.basis_entry(n, k - 1, (n,) * (k - 1), (n,) * (k - 1))
            skewed = pointwise_mul(padding, skewed_x)
            cases = [
                divisible,
                divisible + SymbolTensor.basis_entry(n, k, (n,) * k, (n,) * k),
                skewed,
                conjugate_swap(skewed),
                SymbolTensor.zero(n, k),
            ]
            expected = [_dense_reduce_degree(tensor) for tensor in cases]
            assert expected[0] == embed(base, times - 1)
            assert expected[1:4] == [None] * 3
            for tensor, quotient in zip(cases, expected):
                assert reduce_degree(tensor) == quotient, (n, k, tensor.entries)


def _radius_power(n, m):
    """x**m as an explicit polynomial, x = sum_a zbar_a z_a."""
    x = ZPoly(n)
    for a in range(n + 1):
        unit = tuple(int(b == a) for b in range(n + 1))
        x.add_term((unit, unit), GaussRational(1))
    out = ZPoly(n, {((0,) * (n + 1), (0,) * (n + 1)): GaussRational(1)})
    for _ in range(m):
        out = out * x
    return out


def _kernel_inputs(rng, n, k):
    """Tensors for the integer kernels: complex parts over distinct prime
    denominators (two draws with different lcms), a tensor whose first
    entries cancel in x * sigma_tilde, and the zero tensor."""
    cases = [
        _prime_denominator_symbol(rng, n, k, (1, 2, 3, 5), (1, 3, 7)),
        _prime_denominator_symbol(rng, n, k, (1, 11), (1, 13), size=9),
    ]
    if k:
        # zbar_0 z_0 - zbar_1 z_1 (padded to degree k): times x, the cells
        # zbar_0 zbar_1 z_0 z_1 of the two terms cancel
        pad = (n,) * (k - 1)
        cases.append(
            SymbolTensor(n, k, {
                (tuple(sorted((0,) + pad)), tuple(sorted((0,) + pad))): Fraction(1, 5),
                (tuple(sorted((1,) + pad)), tuple(sorted((1,) + pad))): Fraction(-1, 5),
            })
        )
    cases.append(SymbolTensor.zero(n, k))
    return cases


def test_embed_matches_zpoly_oracle():
    rng = random.Random(31)
    for n, top in [(1, 3), (2, 3), (3, 2)]:
        for k in range(top + 1):
            for tensor in _kernel_inputs(rng, n, k):
                for m in (1, 2, 3):
                    expected = SymbolTensor.from_zpoly(n, k + m, tensor.to_zpoly() * _radius_power(n, m))
                    assert embed(tensor, m) == expected, (n, k, m, tensor.entries)


def test_reduce_degree_matches_dense_oracle_with_fractions():
    # the integer division runs over the tensor's common denominator; the
    # dense oracle solves over GaussRational directly
    rng = random.Random(32)
    for n, top in [(1, 4), (2, 3), (3, 2)]:
        for k in range(1, top + 1):
            for base in _kernel_inputs(rng, n, k - 1):
                divisible = embed(base, 1)
                cases = [
                    divisible,
                    divisible + _prime_denominator_symbol(rng, n, k, (7,), (11,), size=1),
                    _prime_denominator_symbol(rng, n, k, (2, 5), (3,)),
                ]
                for tensor in cases:
                    expected = _dense_reduce_degree(tensor)
                    assert reduce_degree(tensor) == expected, (n, k, tensor.entries)
                assert reduce_degree(divisible) == base


def _assert_canonical(tensor):
    entries = tensor.entries
    assert SymbolTensor(tensor.n, tensor.k, entries) == tensor
    for (left, right), value in entries.items():
        assert isinstance(value, GaussRational) and value
        assert len(left) == len(right) == tensor.k
        assert list(left) == sorted(left) and list(right) == sorted(right)
        assert all(0 <= a <= tensor.n for a in left + right)
        assert type(left) is tuple and type(right) is tuple
    # the cells: nonzero int pairs over the least positive denominator
    assert type(tensor.den) is int and tensor.den >= 1
    # keyed by rank(I) W + rank(J), in lex order of the pairs when sorted
    unranked, width = symbols._unranked(tensor.n, tensor.k), comb(tensor.n + tensor.k, tensor.k)
    assert all(type(key) is int and 0 <= key < width * width for key in tensor.cells)
    assert [unranked[key][:2] for key in sorted(tensor.cells)] == sorted(entries)
    for re, im in tensor.cells.values():
        assert type(re) is int and type(im) is int and (re or im)
    assert gcd(tensor.den, *(part for cell in tensor.cells.values() for part in cell)) == 1
    if tensor.is_zero():
        assert tensor.den == 1


def test_from_cells_results_are_canonical():
    # every producer that builds its result through _from_cells, on seeded
    # inputs that include cancellations and the zero tensor
    rng = random.Random(33)
    for n, k in [(1, 1), (1, 3), (2, 2), (3, 2)]:
        a, b, c, zero = _kernel_inputs(rng, n, k)
        _assert_canonical(identity_symbol(n, k))
        for t in (a, b, c, zero):
            _assert_canonical(conjugate_swap(t))
            _assert_canonical(SymbolTensor.from_zpoly(n, k, t.to_zpoly()))
            for u in (a, b, c, zero):
                _assert_canonical(t + u)
                _assert_canonical(t - u)
                for r in range(k + 1):
                    _assert_canonical(wick_contraction(t, u, r))
            _assert_canonical(-t)
            _assert_canonical(t + (-t))
            for factor in (0, 3, Fraction(-2, 9), GaussRational(Fraction(1, 2)), GaussRational(1, -1), GAUSS_I):
                _assert_canonical(t.scale(factor))
            for m in (0, 1, 2):
                grown = embed(t, m)
                _assert_canonical(grown)
                if grown.k:
                    lowered = reduce_degree(grown)
                    if lowered is not None:
                        _assert_canonical(lowered)
        for level in (1, 2, 3):
            x = random_element(rng, n, level, density=0.6)
            y = random_element(rng, n, 2, density=0.6)
            for product in (star_elements(x, y), star_elements(x, y - y), star_elements(x - x, y)):
                for t in product.components.values():
                    _assert_canonical(t)
            member = x - representative_element(quotient_map(x, 2))
            for element in (x, x.relevel(level + 2), member, StarElement.zero(n)):
                for alpha in (Fraction(2, 7), Fraction(1, 2), Fraction(-3, 5)):
                    _assert_canonical(substitute(element, alpha))
                for K in (1, 2, 3):
                    _assert_canonical(quotient_map(element, K).tensor)
                for t in element.minimized().components.values():
                    _assert_canonical(t)


def test_same_function_ignores_embedding_degree():
    rng = random.Random(15)
    tensor = random_symbol(rng, 2, 1, density=0.8)
    assert reduce_to_min(tensor) == reduce_to_min(embed(tensor, 2))
    assert reduce_to_min(tensor) != reduce_to_min(embed(tensor).scale(2))


def test_contraction_respects_hermitean_conjugation():
    rng = random.Random(16)
    a = random_symbol(rng, 1, 2, density=0.8)
    b = random_symbol(rng, 1, 1, density=0.8)
    for r in range(2):
        direct = conjugate_swap(wick_contraction(a, b, r))
        swapped = wick_contraction(conjugate_swap(b), conjugate_swap(a), r)
        assert direct == swapped


def test_scale_by_imaginary_unit():
    a = SymbolTensor.basis_entry(1, 1, (0,), (1,), g(1, 1))
    assert a.scale(GAUSS_I).entries == {((0,), (1,)): g(-1, 1)}
