"""Sorted multi-index bookkeeping."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from cpstar import symbols
from cpstar.multiindex import _indices, _ranks, merge_indices, multiplicity, sorted_tuples
from cpstar.star import StarElement, star_elements
from cpstar.symbols import SymbolTensor
from test_contraction_plan_oracles import _subtract_indices, submultiset_splits

indices = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(
    lambda xs: tuple(sorted(xs))
)


def test_multiplicity_examples():
    assert multiplicity(()) == 1
    assert multiplicity((0,)) == 1
    assert multiplicity((0, 0)) == 1
    assert multiplicity((0, 1)) == 2
    assert multiplicity((0, 0, 1)) == 3
    assert multiplicity((0, 1, 2)) == 6
    assert multiplicity((0, 0, 1, 1)) == 6


@given(indices)
def test_multiplicity_counts_distinct_orderings(index):
    assert multiplicity(index) == len(set(permutations(index)))


def test_sorted_tuples_enumeration():
    assert sorted_tuples(1, 2) == ((0, 0), (0, 1), (1, 1))
    assert sorted_tuples(2, 0) == ((),)
    for n in range(3):
        for k in range(5):
            tuples = sorted_tuples(n, k)
            assert len(tuples) == comb(n + k, k)
            assert all(t == tuple(sorted(t)) for t in tuples)
            assert len(set(tuples)) == len(tuples)


def test_merge_and_subtract():
    assert merge_indices((0, 2), (1, 2)) == (0, 1, 2, 2)
    assert _subtract_indices((0, 1, 2, 2), (1, 2)) == (0, 2)
    assert merge_indices((), (1,)) == (1,)
    assert _subtract_indices((1,), (1,)) == ()


@given(indices, indices)
def test_subtract_inverts_merge(left, right):
    assert _subtract_indices(merge_indices(left, right), right) == left


def test_submultiset_splits_examples():
    assert submultiset_splits((0, 0, 1), 0) == (((), (0, 0, 1)),)
    splits = dict(submultiset_splits((0, 0, 1), 1))
    assert splits == {(0,): (0, 1), (1,): (0, 0)}
    splits = dict(submultiset_splits((0, 0, 1), 2))
    assert splits == {(0, 0): (1,), (0, 1): (0,)}
    assert submultiset_splits((0, 1), 3) == ()
    assert submultiset_splits((0, 1), -1) == ()


@given(indices, st.integers(min_value=0, max_value=5))
def test_splits_are_distinct_and_recombine(index, r):
    splits = submultiset_splits(index, r)
    assert len(set(splits)) == len(splits)
    for chosen, rest in splits:
        assert len(chosen) == r
        assert merge_indices(chosen, rest) == index


@given(indices)
def test_split_multiplicities_convolve(index):
    # every ordering of the whole tuple decomposes uniquely into the ordering
    # of its first r letters and the ordering of the remaining ones, so the
    # multiplicity products over all splits sum to the whole multiplicity
    for r in range(len(index) + 1):
        total = sum(
            multiplicity(chosen) * multiplicity(rest)
            for chosen, rest in submultiset_splits(index, r)
        )
        assert total == multiplicity(index)


def _sparse_element(rng: random.Random, n: int, level: int, cells: int) -> StarElement:
    components = {}
    for r in range(level + 1):
        entries = {}
        for _ in range(cells if r else 1):
            key = (
                tuple(sorted(rng.randrange(n + 1) for _ in range(r))),
                tuple(sorted(rng.randrange(n + 1) for _ in range(r))),
            )
            entries[key] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        components[r] = SymbolTensor(n, r, entries)
    return StarElement(n, level, components)


def test_index_caches_are_bounded_on_many_shapes():
    # two level-3 products on CP^16, of 4-cell and of 40-cell components,
    # meet hundreds of index tuples; every cache keeps within its bound
    caches = (
        multiplicity, sorted_tuples, merge_indices, _indices, _ranks,
        symbols._letters, symbols._splits, symbols._codes, symbols._decoded,
    )
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(34)
    for cells in (4, 40):
        star_elements(_sparse_element(rng, 16, 3, cells), _sparse_element(rng, 16, 3, cells))
    assert sum(len(_indices(16, k)) for k in range(4)) > 100
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, (cache.__name__, info)
