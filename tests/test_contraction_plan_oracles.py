"""The Wick kernel on additive monomial codes against the tuple-keyed
contraction it replaced.

``symbols._wick_sums`` runs every star product and contraction: it keys
each monomial by an additive code over the letters its factors use, so the
output key of a term is one int addition, and it decodes each output code
once to a cell key, the int ``rank(I) W + rank(J)`` that
``SymbolTensor.cells`` uses.  The oracle here is the tuple-keyed kernel,
kept on purpose: it recomputes every split, weight and merge per cell and
keys by ``(I, J)`` tuples.  It reads the tensors' cells by pair through
``_unranked``, and its result goes back to cell keys through ``_ranks``.
Both are compared at ``cells``/``den`` equality of the resulting tensors,
through the kernel itself (one order, all orders, several factors at
once, on Hypothesis sides whose degrees may not overlap), and through
``wick_contraction``, ``star_symbols`` and
``star_elements``, on CP^0-CP^3 with fractional Gaussian entries and on
sparse products on CP^16 and CP^1000000.  The oracle's split helpers,
``submultiset_splits`` and ``_subtract_indices``, live here too, as no
kernel of the package splits index tuples any more; ``test_multiindex.py``
checks them.  ``wick_contraction_reference``
in ``test_symbols.py`` stays the independent check of the weights
themselves.

The last test pins down laziness: a sparse product on CP^16 must fill no
more table entries than the (cell, split, match) triples it visits.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpstar import multiindex, symbols
from cpstar.multiindex import (
    _indices,
    _lex_rank,
    _lex_unrank,
    _ranks,
    merge_indices,
    multiplicity,
    sorted_tuples,
)
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, _star_coefficient, star_elements, star_symbols
from cpstar.symbols import SymbolTensor, _wick_sums, wick_contraction


def pair_cells(tensor):
    """The tensor's cells keyed by index pairs, read through ``_unranked``."""
    unranked = symbols._unranked(tensor.n, tensor.k)
    return {unranked[key][:2]: cell for key, cell in tensor.cells.items()}


def from_pair_cells(n, k, den, cells):
    """``SymbolTensor._from_cells`` of cells keyed by index pairs, their
    keys read through ``_ranks``."""
    ranks, width = symbols._ranks(n, k), comb(n + k, k)
    return SymbolTensor._from_cells(n, k, den, {ranks[i] * width + ranks[j]: cell for (i, j), cell in cells.items()})


def _falling(k, r):
    """The falling factorial ``k!/(k-r)!`` as a product, which
    ``math.perm`` replaced in ``symbols``."""
    out = 1
    for j in range(r):
        out *= k - j
    return out


def _subtract_indices(whole, part):
    """Remove the multiset ``part`` from ``whole`` (both sorted); assumes containment."""
    out = list(whole)
    for a in part:
        out.remove(a)
    return tuple(out)


@lru_cache(maxsize=1 << 10)
def submultiset_splits(index, r):
    """All distinct splits of a sorted tuple into (submultiset of size r, rest)."""
    if r < 0 or r > len(index):
        return ()
    if r == 0:
        return (((), index),)
    letters = sorted(set(index))
    counts = {a: index.count(a) for a in letters}
    splits = []

    def walk(pos, remaining, chosen):
        if remaining == 0:
            alpha = tuple(chosen)
            splits.append((alpha, _subtract_indices(index, alpha)))
            return
        if pos == len(letters):
            return
        letter = letters[pos]
        # take t copies of this letter, t from high to low keeps output sorted-stable
        for t in range(min(counts[letter], remaining), -1, -1):
            walk(pos + 1, remaining - t, chosen + [letter] * t)

    walk(0, r, [])
    return tuple(splits)


def contract_into_oracle(accum, left_cells, right_cells, k, l, r, scale):
    """The tuple-keyed accumulator: ``scale`` times the r-th contraction of
    two cell maps, added into ``accum`` keyed by sorted index pairs."""
    fall_k = _falling(k, r) * scale
    fall_l = _falling(l, r)
    right_split = {}
    for (pb, qb), (b_re, b_im) in right_cells.items():
        m_p = multiplicity(pb)
        for alpha, i2 in submultiset_splits(pb, r):
            w = fall_l * multiplicity(i2) // m_p
            right_split.setdefault(alpha, []).append((i2, qb, b_re * w, b_im * w))
    for (ia, ja), (va_re, va_im) in left_cells.items():
        m_j = multiplicity(ja)
        for alpha, j2 in submultiset_splits(ja, r):
            matches = right_split.get(alpha)
            if not matches:
                continue
            w = fall_k * multiplicity(j2) // m_j * multiplicity(alpha)
            a_re = va_re * w
            a_im = va_im * w
            for i2, qb, b_re, b_im in matches:
                key = (merge_indices(ia, i2), merge_indices(j2, qb))
                c_re = a_re * b_re - a_im * b_im
                c_im = a_re * b_im + a_im * b_re
                cell = accum.get(key)
                if cell is None:
                    accum[key] = [c_re, c_im]
                else:
                    cell[0] += c_re
                    cell[1] += c_im


def star_elements_oracle(left, right):
    """``star_elements`` as it ran on the tuple-keyed kernel."""
    n = left.n
    level = left.level + right.level
    if not (left.components and right.components):
        return StarElement(n, level)
    d_left = lcm(*(phi.den for phi in left.components.values()))
    d_right = lcm(*(psi.den for psi in right.components.values()))
    top = factorial(min(max(left.components), max(right.components)))
    sums = {}
    for r, phi in left.components.items():
        for s, psi in right.components.items():
            rescale = d_left // phi.den * (d_right // psi.den)
            for t in range(min(r, s) + 1):
                weight = rescale * (top // factorial(t))
                contract_into_oracle(sums.setdefault(r + s - t, {}), pair_cells(phi), pair_cells(psi), r, s, t, weight)
    d = d_left * d_right * top
    return StarElement(n, level, {degree: from_pair_cells(n, degree, d, cells) for degree, cells in sums.items()})


def _value(rng, primes=(1, 2, 3, 5)):
    return GaussRational(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(primes)),
        Fraction(rng.randint(-3, 3), rng.choice(primes)),
    )


def _symbol(rng, n, k, size=None, primes=(1, 2, 3, 5)):
    """All ``sorted_tuples(n, k)**2`` slots filled when ``size`` is None,
    else ``size`` random ones."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    if size is not None:
        slots = rng.sample(slots, min(size, len(slots)))
    return SymbolTensor(n, k, {slot: _value(rng, primes) for slot in slots})


def _same(tensor, expected):
    assert (tensor.n, tensor.k) == (expected.n, expected.k)
    assert tensor.den == expected.den
    assert tensor.cells == expected.cells


# a dense k x l contraction on CP^3 at k = l = 4 runs about a million
# terms per order; the dense cases stop where the oracle stays quick
DENSE_SLOTS = 250


def _kernel_tensors(n, left, right, order=None, factor=1):
    """The kernel's cells of one product, as tensors over the product of
    the denominators, by output degree."""
    sums = _wick_sums(n, [(left.k, left.cells, factor)], [(right.k, right.cells, 1)], order)
    return {degree: SymbolTensor._from_cells(n, degree, left.den * right.den, cells) for degree, cells in sums.items()}


def _oracle_tensor(n, left, right, r, scale=1):
    expected = {}
    contract_into_oracle(expected, pair_cells(left), pair_cells(right), left.k, right.k, r, scale)
    return from_pair_cells(n, left.k + right.k - r, left.den * right.den, expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_kernel_matches_tuple_oracle(n):
    rng = random.Random(1100 + n)
    for k in range(5):
        for l in range(5):
            factors = [(_symbol(rng, n, k, 3), _symbol(rng, n, l, 3))]
            if comb(n + k, n) ** 2 * comb(n + l, n) ** 2 <= DENSE_SLOTS**2:
                factors.append((_symbol(rng, n, k), _symbol(rng, n, l)))
            else:
                factors.append((_symbol(rng, n, k, 40), _symbol(rng, n, l, 40)))
            for left, right in factors:
                every = _kernel_tensors(n, left, right)
                assert set(every) <= {k + l - r for r in range(min(k, l) + 1)}
                for r in range(min(k, l) + 1):
                    degree = k + l - r
                    zero = SymbolTensor.zero(n, degree)
                    # the |alpha| = r part is 1/r! times the r-th contraction
                    for scale in (1, 6):
                        one = _kernel_tensors(n, left, right, r, scale * factorial(r))
                        assert set(one) <= {degree}
                        _same(one.get(degree, zero), _oracle_tensor(n, left, right, r, scale))
                    _same(every.get(degree, zero).scale(factorial(r)), _oracle_tensor(n, left, right, r))
                    _same(wick_contraction(left, right, r), _oracle_tensor(n, left, right, r))


def _oracle_sums(n, lefts, rights, order=None):
    """``_wick_sums`` of ``(tensor, int)`` factors from the tuple-keyed
    contraction, summed over the factor pairs: tensors by output degree
    over the product of the denominators the factors are brought to."""
    d_left, d_right = lcm(*(t.den for t, _ in lefts)), lcm(*(t.den for t, _ in rights))
    top = factorial(min(max(t.k for t, _ in lefts), max(t.k for t, _ in rights)))
    expected = {}
    for left, a in lefts:
        for right, b in rights:
            for r in range(min(left.k, right.k) + 1):
                if order not in (None, r):
                    continue
                weight = d_left // left.den * a * (d_right // right.den * b) * (top // factorial(r))
                accum = expected.setdefault(left.k + right.k - r, {})
                contract_into_oracle(accum, pair_cells(left), pair_cells(right), left.k, right.k, r, weight)
    return {degree: from_pair_cells(n, degree, d_left * d_right * top, cells) for degree, cells in expected.items()}


def _kernel_sums(n, lefts, rights, order=None):
    """``_wick_sums`` of the same factors, as tensors by output degree."""
    d_left, d_right = lcm(*(t.den for t, _ in lefts)), lcm(*(t.den for t, _ in rights))
    sums = _wick_sums(
        n,
        [(t.k, t.cells, d_left // t.den * a) for t, a in lefts],
        [(t.k, t.cells, d_right // t.den * b) for t, b in rights],
        order,
    )
    return {degree: SymbolTensor._from_cells(n, degree, d_left * d_right, cells) for degree, cells in sums.items()}


def test_kernel_accumulates_across_shapes_like_the_oracle():
    # F and G are sums of tensors of several degrees, each scaled by an int;
    # every pair of them adds into one sum per output degree
    rng = random.Random(1110)
    n = 2
    phi, psi, chi = _symbol(rng, n, 2), _symbol(rng, n, 3, 12), _symbol(rng, n, 1)
    lefts, rights = [(phi, 6), (psi, 1), (chi, 2)], [(psi, 3), (chi, 1)]
    sums, expected = _kernel_sums(n, lefts, rights), _oracle_sums(n, lefts, rights)
    assert set(sums) == set(expected)
    for degree, tensor in sums.items():
        _same(tensor, expected[degree])


@st.composite
def _sparse_tensors(draw, n, k):
    """Up to four cells of a degree-``k`` tensor on CP^n over denominators 1-5."""
    index = st.lists(st.integers(0, n), min_size=k, max_size=k).map(lambda letters: tuple(sorted(letters)))
    part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 5))
    keys = draw(st.lists(st.tuples(index, index), min_size=1, max_size=4, unique=True))
    return SymbolTensor(n, k, {key: GaussRational(draw(part), draw(part)) for key in keys})


@st.composite
def _wick_inputs(draw):
    """``(n, lefts, rights, order)``: each side 1-3 ``(tensor, int)``
    factors of degree 0-4, one side's degrees often all below the other's
    (a side of degree 0 only among them), and ``order`` None or an r up to
    the smaller top degree."""
    n = draw(st.integers(1, 3))
    low, high = st.integers(0, 4), st.integers(0, 4)
    below = draw(st.sampled_from([None, "left", "right"]))
    if below is not None:
        cut = draw(st.integers(1, 4))
        low, high = st.integers(0, cut - 1), st.integers(cut, 4)
    sides = []
    for degrees in (low, high) if below != "right" else (high, low):
        degree_list = draw(st.lists(degrees, min_size=1, max_size=3))
        sides.append([(draw(_sparse_tensors(n, k)), draw(st.integers(-4, 4))) for k in degree_list])
    lefts, rights = sides
    smaller = min(max(t.k for t, _ in lefts), max(t.k for t, _ in rights))
    order = draw(st.one_of(st.none(), st.integers(0, smaller)))
    return n, lefts, rights, order


_CONSTANT = SymbolTensor(2, 0, {((), ()): GaussRational(Fraction(2, 3), Fraction(-1, 5))})
_QUADRATIC = SymbolTensor(2, 2, {((0, 2), (1, 2)): Fraction(3, 4), ((1, 1), (0, 0)): GaussRational(0, Fraction(1, 2))})
_CUBIC = SymbolTensor(2, 3, {((0, 1, 2), (2, 2, 2)): Fraction(-2, 5)})


@settings(max_examples=150, deadline=None)
@given(_wick_inputs())
@example((2, [(_CONSTANT, 3)], [(_QUADRATIC, 1), (_CUBIC, -2)], None))
@example((2, [(_QUADRATIC, 1), (_CUBIC, 2)], [(_CONSTANT, -1)], None))
@example((2, [(_QUADRATIC, 2)], [(_CUBIC, 1), (_QUADRATIC, 1)], 2))
def test_kernel_on_sides_of_any_degrees_matches_the_oracle(inputs):
    # each side walks its splits only up to the other side's top degree;
    # the splits it skips have no partner, so every sum is the oracle's
    n, lefts, rights, order = inputs
    sums, expected = _kernel_sums(n, lefts, rights, order), _oracle_sums(n, lefts, rights, order)
    assert set(sums) <= set(expected)
    for degree, tensor in expected.items():
        _same(sums.get(degree, SymbolTensor.zero(n, degree)), tensor)


def star_symbols_oracle(f, g):
    """The terms of ``star_symbols`` from the tuple-keyed contraction."""
    return [(r, _star_coefficient(f.k, g.k, r), _oracle_tensor(f.n, f, g, r)) for r in range(min(f.k, g.k) + 1)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_products_match_the_oracle_over_fractional_denominators(n):
    # entries over denominators 1, 2, 3, 5, 7 and 11, dense and sparse
    rng = random.Random(1140 + n)
    primes = (1, 2, 3, 5, 7, 11)
    for _ in range(6):
        k, l = rng.randint(0, 3), rng.randint(0, 3)
        size = None if comb(n + max(k, l), n) <= 6 else 5
        f, g = (_symbol(rng, n, d, size, primes) for d in (k, l))
        terms = star_symbols(f, g)
        assert [(t.r, t.coefficient, t.tensor) for t in terms] == star_symbols_oracle(f, g)
        for r in range(min(k, l) + 1):
            _same(wick_contraction(f, g, r), _oracle_tensor(n, f, g, r))
        a, b = (
            StarElement(n, level, {r: _symbol(rng, n, r, 4, primes) for r in range(level + 1)})
            for level in (rng.randint(0, 3), rng.randint(0, 3))
        )
        assert star_elements(a, b) == star_elements_oracle(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_star_elements_matches_tuple_oracle(seed):
    rng = random.Random(1120 + seed)
    for n, la, lb in [(1, 3, 3), (2, 2, 3), (3, 2, 2), (3, 1, 3), (0, 2, 2), (2, 4, 1)]:
        for dense in (True, False):
            # a dense component has every slot, up to 10 x 10 of them
            a, b = (
                StarElement(n, level, {
                    r: _symbol(rng, n, r, None if dense and comb(n + r, n) <= 10 else 4) for r in range(level + 1)
                })
                for level in (la, lb)
            )
            assert star_elements(a, b) == star_elements_oracle(a, b), (n, la, lb, dense)


def test_lex_rank_and_unrank_round_trip_in_order():
    for n in range(5):
        for d in range(6):
            tuples = sorted_tuples(n, d)
            assert [_lex_rank(n, index) for index in tuples] == list(range(len(tuples)))
            assert [_lex_unrank(n, d, rank) for rank in range(len(tuples))] == list(tuples)
            assert len(tuples) == comb(n + d, d)


def _sparse_symbol(rng, n, k, cells):
    entries = {}
    while len(entries) < cells:
        key = tuple(tuple(sorted(rng.randrange(n + 1) for _ in range(k))) for _ in range(2))
        entries[key] = _value(rng)
    return SymbolTensor(n, k, entries)


def _sparse_element(rng, n, level, cells):
    return StarElement(n, level, {r: _sparse_symbol(rng, n, r, cells if r else 1) for r in range(level + 1)})


def test_sparse_products_on_cp_million_match_the_oracle():
    # letters up to 10**6 - 1: the codes use the few letters the factors hold
    n = 10**6
    rng = random.Random(1150)
    a, b = _sparse_element(rng, n, 3, 3), _sparse_element(rng, n, 2, 3)
    assert star_elements(a, b) == star_elements_oracle(a, b)
    f, g = a.components[3], b.components[2]
    assert [(t.r, t.coefficient, t.tensor) for t in star_symbols(f, g)] == star_symbols_oracle(f, g)
    # letters shared by both factors, so no order of the contraction is zero
    f = SymbolTensor(n, 2, {((7, 999_999), (5, 999_999)): Fraction(2, 3), ((0, 7), (7, 999_999)): 1})
    g = SymbolTensor(n, 2, {((7, 999_999), (3, 4)): Fraction(1, 5)})
    for r in range(3):
        _same(wick_contraction(f, g, r), _oracle_tensor(n, f, g, r))
    assert wick_contraction(f, g, 1) and wick_contraction(f, g, 2)


def test_sparse_cp16_pair_of_levels_three_and_one_matches_the_oracle():
    # one side's top degree is three times the other's, in both orders
    n = 16
    rng = random.Random(1162)
    a, b = _sparse_element(rng, n, 3, 4), _sparse_element(rng, n, 1, 4)
    assert all(wick_contraction(a.components[r], b.components[1], 1) for r in (1, 2, 3))
    assert all(wick_contraction(b.components[1], a.components[r], 1) for r in (1, 2, 3))
    assert star_elements(a, b) == star_elements_oracle(a, b)
    assert star_elements(b, a) == star_elements_oracle(b, a)


def _visits(left_cells, right_cells, r):
    """The (left cell, split, right match) triples of one contraction, and
    the splits of its input cells."""
    alphas = {}
    for pb, _ in right_cells:
        for alpha, _ in submultiset_splits(pb, r):
            alphas[alpha] = alphas.get(alpha, 0) + 1
    left_splits = [alpha for _, ja in left_cells for alpha, _ in submultiset_splits(ja, r)]
    return sum(alphas.get(alpha, 0) for alpha in left_splits), len(left_splits) + sum(alphas.values())


def test_sparse_product_fills_only_what_it_visits():
    n = 16
    rng = random.Random(1130)
    a = _sparse_element(rng, n, 3, 4)
    b = _sparse_element(rng, n, 3, 4)
    for module in (symbols, multiindex):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    product = star_elements(a, b)
    # the product reads and writes cell keys only: it unranks no key
    assert sum(len(symbols._unranked(n, degree)) for degree in range(7)) == 0
    # the tables the product filled, read back without a miss: the codes
    # use the letters of the factors' cells, with digits of 3 bits
    caches = (symbols._letters, symbols._splits, symbols._codes, symbols._decoded, _indices, _ranks)
    misses = [cache.cache_info().misses for cache in caches]
    inputs = [*a.components.values(), *b.components.values()]
    letters = tuple(sorted({
        letter for t in inputs for key in t.cells for rank in divmod(key, comb(n + t.k, t.k))
        for letter in _lex_unrank(n, t.k, rank)
    }))
    letter_sets = sum(len(symbols._letters(n, k)) for k in range(4))
    splits = [symbols._splits(n, k, letters, 3, right)[2] for k in range(4) for right in (False, True)]
    codes = sum(len(symbols._codes(n, k, letters, 3)) for k in range(4))
    decoded = len(symbols._decoded(n, letters, 3))
    indices = sum(len(_indices(n, k)) for k in range(4))
    ranks = sum(len(_ranks(n, k)) for k in range(7))
    assert [cache.cache_info().misses for cache in caches] == misses
    expected = star_elements_oracle(a, b)
    assert product == expected
    # read by pair at the boundary, the output fills at most one pair per cell
    assert {r: pair_cells(t) for r, t in product.components.items()} == {
        r: pair_cells(t) for r, t in expected.components.items()
    }

    shapes = [(r, s, t) for r in a.components for s in b.components for t in range(min(r, s) + 1)]
    visits = [_visits(pair_cells(a.components[r]), pair_cells(b.components[s]), t) for r, s, t in shapes]
    triples = sum(v for v, _ in visits)
    cells = sum(len(t.cells) for t in inputs)
    # at most one entry per input cell, or per index of one, in each table
    # that reads input cells
    assert 0 < letter_sets <= cells
    assert 0 < sum(map(len, splits)) <= cells
    assert 0 < codes <= 2 * cells
    assert 0 < sum(len(group) for table in splits for groups in table.values() for group in groups) <= sum(
        v for _, v in visits
    )
    assert 0 < indices <= 2 * cells
    # one entry per output monomial reached, cancelled ones included
    assert sum(len(t.cells) for t in product.components.values()) <= decoded <= triples
    assert 0 < ranks <= 2 * decoded
    # a dense table for the level-6 output alone would have C(22, 6)**2 cells
    assert triples < 10_000 < comb(n + 6, 6) ** 2
