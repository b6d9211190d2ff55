"""The plan-driven contraction kernel against the tuple-keyed one it replaced.

``symbols._contract_into`` reads per-shape plans (split weights and merged
output positions, filled as cells need them) and keys its accumulator by
cell keys, the ints ``rank(I) W + rank(J)`` that ``SymbolTensor.cells``
uses.  The oracle here is the kernel it replaced, kept on purpose: it
recomputes every split, weight and merge per cell and keys by ``(I, J)``
tuples.  It reads the tensors' cells by pair through ``_unranked``, and
its result goes back to cell keys through ``_ranks``.  Both are compared at
``cells``/``den`` equality of the resulting tensors, through the kernel
itself at two scales, through ``wick_contraction`` and through
``star_elements``.  ``wick_contraction_reference`` in ``test_symbols.py``
stays the independent check of the weights themselves.

The last test pins down laziness: a sparse product on CP^16 must fill no
more plan entries than the (cell, split, match) triples it visits.
"""

import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from cpstar import symbols
from cpstar.multiindex import (
    _lex_rank,
    _lex_unrank,
    merge_indices,
    multiplicity,
    sorted_tuples,
    submultiset_splits,
)
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, star_elements
from cpstar.symbols import SymbolTensor, _contract_into, wick_contraction


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


def _symbol(rng, n, k, size=None):
    """All ``sorted_tuples(n, k)**2`` slots filled when ``size`` is None,
    else ``size`` random ones."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    if size is not None:
        slots = rng.sample(slots, min(size, len(slots)))
    return SymbolTensor(n, k, {slot: _value(rng) for slot in slots})


def _same(tensor, expected):
    assert (tensor.n, tensor.k) == (expected.n, expected.k)
    assert tensor.den == expected.den
    assert tensor.cells == expected.cells


# a dense k x l contraction on CP^3 at k = l = 4 runs about a million
# terms per order; the dense cases stop where the oracle stays quick
DENSE_SLOTS = 250


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
                den = left.den * right.den
                for r in range(min(k, l) + 1):
                    degree = k + l - r
                    for scale in (1, 6):
                        accum, expected = {}, {}
                        _contract_into(accum, left.cells, right.cells, n, k, l, r, scale)
                        contract_into_oracle(expected, pair_cells(left), pair_cells(right), k, l, r, scale)
                        _same(
                            SymbolTensor._from_cells(n, degree, den, accum),
                            from_pair_cells(n, degree, den, expected),
                        )
                    expected = {}
                    contract_into_oracle(expected, pair_cells(left), pair_cells(right), k, l, r, 1)
                    _same(wick_contraction(left, right, r), from_pair_cells(n, degree, den, expected))


def test_kernel_accumulates_across_shapes_like_the_oracle():
    # star_elements adds contractions of several shapes into one dict per
    # output degree; a second call on the same dict must add, not replace
    rng = random.Random(1110)
    n = 2
    phi, psi, chi = _symbol(rng, n, 2), _symbol(rng, n, 3, 12), _symbol(rng, n, 1)
    accum, expected = {}, {}
    for left, right, r, scale in [(phi, psi, 1, 6), (psi, chi, 0, 1), (phi, phi, 0, 2), (psi, psi, 2, 3)]:
        _contract_into(accum, left.cells, right.cells, n, left.k, right.k, r, scale)
        contract_into_oracle(expected, pair_cells(left), pair_cells(right), left.k, right.k, r, scale)
    _same(SymbolTensor._from_cells(n, 4, 5, accum), from_pair_cells(n, 4, 5, expected))


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
    a = StarElement(n, 3, {r: _sparse_symbol(rng, n, r, 4 if r else 1) for r in range(4)})
    b = StarElement(n, 3, {r: _sparse_symbol(rng, n, r, 4 if r else 1) for r in range(4)})
    for value in vars(symbols).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    product = star_elements(a, b)
    # the product reads and writes cell keys only: it unranks no key
    assert sum(len(symbols._unranked(n, degree)) for degree in range(7)) == 0
    expected = star_elements_oracle(a, b)
    assert product == expected
    # read by pair at the boundary, the output fills at most one pair per cell
    assert {r: pair_cells(t) for r, t in product.components.items()} == {
        r: pair_cells(t) for r, t in expected.components.items()
    }

    shapes = [(r, s, t) for r in a.components for s in b.components for t in range(min(r, s) + 1)]
    visits = [_visits(pair_cells(a.components[r]), pair_cells(b.components[s]), t) for r, s, t in shapes]
    triples = sum(v for v, _ in visits)
    heads, rows, splits = {}, {}, 0
    misses = symbols._contraction_plan.cache_info().misses
    for r, s, t in shapes:
        plan_heads, left, right = symbols._contraction_plan(n, r, s, t)
        for row, _ in plan_heads.values():
            heads[id(row)] = len(row)
        for split in left.values():
            for _, row, _, _ in split:
                rows[id(row)] = len(row)
        splits += sum(map(len, left.values())) + sum(map(len, right.values()))
    assert symbols._contraction_plan.cache_info().misses == misses  # the plans the product filled
    pairs = sum(len(symbols._unranked(n, degree)) for degree in range(7))
    assert 0 < sum(heads.values()) <= triples
    assert 0 < sum(rows.values()) <= triples
    assert 0 < pairs <= triples
    assert 0 < splits <= sum(v for _, v in visits)
    # a dense table for the level-6 output alone would have C(22, 6)**2 cells
    assert triples < 10_000 < comb(n + 6, 6) ** 2
