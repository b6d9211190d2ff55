"""The int-keyed symbol kernels against the tuple-keyed ones they replaced.

``SymbolTensor.cells`` is keyed by the int ``rank(I) W + rank(J)``, with
``rank`` the lex rank of a sorted index and ``W = C(n + k, k)``, and the
kernels read these keys through lazily filled tables per shape.  The
oracles here are the kernels as they ran on ``(I, J)`` tuple keys, kept on
purpose:

* ``times_x_oracle``, the old ``_times_x``: raise both index groups by
  every letter with ``merge_indices``;
* ``reduce_degree_oracle``, the old long division by x on a heap of
  index pairs;
* ``contracted_oracle``, the old key conversion of the contraction
  accumulator, ``{pairs[key]: cell}``;
* ``code_oracle``, the additive code of a monomial that the Wick kernel
  keys its terms by, one digit per letter and index group, against which
  the kernel's decoding and split tables are read.

``by_pair`` and ``by_rank`` convert between the two key formats with
``_lex_rank``/``_lex_unrank`` directly, so the tables under test play no
part in the conversion.  Inputs are CP^1-CP^3 tensors with complex parts
over distinct prime denominators, with cancelling cells and the zero
tensor, and the components of a sparse CP^16 product.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, perm, prod

import pytest

from cpstar import symbols
from cpstar.multiindex import _lex_rank, _lex_unrank, merge_indices, sorted_tuples
from cpstar.scalars import GaussRational, _normalised
from cpstar.star import StarElement, star_elements
from cpstar.symbols import SymbolTensor, _times_x, _wick_sums, embed, reduce_degree

PRIMES = (2, 3, 5, 7, 11, 13)


def by_pair(n, k, cells):
    """Int-keyed cells of degree ``k`` as a dict keyed by index pairs."""
    width = comb(n + k, k)
    out = {}
    for key, cell in cells.items():
        head, tail = divmod(key, width)
        out[(_lex_unrank(n, k, head), _lex_unrank(n, k, tail))] = cell
    return out


def by_rank(n, k, cells):
    """Pair-keyed cells of degree ``k`` as a dict keyed by cell keys."""
    width = comb(n + k, k)
    return {_lex_rank(n, left) * width + _lex_rank(n, right): cell for (left, right), cell in cells.items()}


def times_x_oracle(n, cells):
    """Tuple-keyed cells times x = sum_a zbar_a z_a, as ``[re, im]`` lists."""
    grown = {}
    raised = {}  # index -> index + (a,) for every letter a
    for (left, right), (c_re, c_im) in cells.items():
        lefts = raised.get(left)
        if lefts is None:
            lefts = raised[left] = [merge_indices(left, (a,)) for a in range(n + 1)]
        rights = raised.get(right)
        if rights is None:
            rights = raised[right] = [merge_indices(right, (a,)) for a in range(n + 1)]
        for key in zip(lefts, rights):
            cell = grown.get(key)
            if cell is None:
                grown[key] = [c_re, c_im]
            else:
                cell[0] += c_re
                cell[1] += c_im
    return grown


def reduce_degree_oracle(n, cells):
    """Tuple-keyed cells divided by x, or None: lex long division on a heap
    of index pairs, lead monomial zbar_0 z_0."""
    remainder = {key: list(cell) for key, cell in cells.items()}
    heap = list(remainder)
    heapify(heap)
    quotient = {}
    while heap:
        key = heappop(heap)
        c_re, c_im = cell = remainder.pop(key)
        if not (c_re or c_im):
            continue
        left, right = key
        if left[0] != 0 or right[0] != 0:
            return None
        left, right = left[1:], right[1:]
        quotient[(left, right)] = cell
        for a in range(1, n + 1):
            key = (merge_indices(left, (a,)), merge_indices(right, (a,)))
            existing = remainder.get(key)
            if existing is None:
                remainder[key] = [-c_re, -c_im]
                heappush(heap, key)
            else:
                existing[0] -= c_re
                existing[1] -= c_im
    return quotient


def contracted_oracle(n, degree, accum):
    """The old key conversion of a contraction accumulator: each int key
    ``h W + a`` to the pair of sorted tuples at ranks h and a."""
    width = comb(n + degree, degree)
    pairs = {}
    out = {}
    for key, cell in accum.items():
        pair = pairs.get(key)
        if pair is None:
            head, tail = divmod(key, width)
            pair = pairs[key] = (_lex_unrank(n, degree, head), _lex_unrank(n, degree, tail))
        out[pair] = cell
    return out


def _value(rng):
    return GaussRational(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(PRIMES)),
        Fraction(rng.randint(-3, 3), rng.choice(PRIMES)),
    )


def _tensors(rng, n, k):
    """Dense and sparse tensors over distinct prime denominators, one with
    cells that cancel under x, one divisible by x, and the zero tensor."""
    slots = [(i, j) for i in sorted_tuples(n, k) for j in sorted_tuples(n, k)]
    dense = SymbolTensor(n, k, {slot: _value(rng) for slot in slots})
    sparse = SymbolTensor(n, k, {slot: _value(rng) for slot in rng.sample(slots, min(3, len(slots)))})
    out = [dense, sparse, SymbolTensor.zero(n, k)]
    if k:
        # (zbar_0 z_0 - zbar_1 z_1) / 3 times a monomial: x times it has a
        # cell where zbar_1 z_1 of the first and zbar_0 z_0 of the second cancel
        low = (0,) * (k - 1)
        entries = {(low + (0,), low + (0,)): Fraction(1, 3), (low + (1,), low + (1,)): Fraction(-1, 3)}
        out.append(SymbolTensor(n, k, entries))
        below = [(i, j) for i in sorted_tuples(n, k - 1) for j in sorted_tuples(n, k - 1)]
        out.append(embed(SymbolTensor(n, k - 1, {slot: _value(rng) for slot in rng.sample(below, min(2, len(below)))}), 1))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_times_x_matches_tuple_oracle(n):
    rng = random.Random(2100 + n)
    for k in range(4):
        for tensor in _tensors(rng, n, k):
            grown = _times_x(n, k, tensor.cells)
            assert grown == by_rank(n, k + 1, times_x_oracle(n, by_pair(n, k, tensor.cells)))
            for times in (1, 2):
                cells = by_pair(n, k, tensor.cells)
                for _ in range(times):
                    cells = times_x_oracle(n, cells)
                lifted = embed(tensor, times)
                assert (lifted.den, lifted.cells) == _normalised(tensor.den, by_rank(n, k + times, cells))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_degree_matches_tuple_oracle(n):
    rng = random.Random(2110 + n)
    seen = {True: 0, False: 0}
    for k in range(1, 4):
        for base in _tensors(rng, n, k):
            for tensor in (base, embed(base, 1), embed(base, 2), base - base):
                expected = reduce_degree_oracle(n, by_pair(n, tensor.k, tensor.cells))
                lowered = reduce_degree(tensor)
                seen[expected is None] += 1
                if expected is None:
                    assert lowered is None
                else:
                    assert (lowered.den, lowered.cells) == _normalised(tensor.den, by_rank(n, tensor.k - 1, expected))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_keys_are_the_converted_pairs(n):
    # the kernel's int keys are cell keys: the tensor built from them holds,
    # at each pair, the cell the old conversion put there
    rng = random.Random(2120 + n)
    for k in range(3):
        for l in range(3):
            for left in _tensors(rng, n, k)[:3]:
                for right in _tensors(rng, n, l)[1:3]:
                    for r in range(min(k, l) + 1):
                        degree = k + l - r
                        accum = _wick_sums(n, [(k, left.cells, 5)], [(l, right.cells, 1)], r).get(degree, {})
                        den = left.den * right.den
                        tensor = SymbolTensor._from_cells(n, degree, den, accum)
                        expected = _normalised(den, contracted_oracle(n, degree, accum))
                        assert (tensor.den, by_pair(n, degree, tensor.cells)) == expected


def code_oracle(letters, s, left, right):
    """The code of zbar^left z^right over ``letters`` with digits of ``s``
    bits, as the layout reads: one digit per letter and group, the
    antiholomorphic group first."""
    m = len(letters)
    return sum(left.count(a) << (p * s) for p, a in enumerate(letters)) + sum(
        right.count(a) << ((m + p) * s) for p, a in enumerate(letters)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 16])
def test_codes_decode_to_cell_keys(n):
    # every pair of degree up to 2**s - 1 over a set of letters decodes to
    # its degree and its cell key, and the splits' codes add up to it
    rng = random.Random(2140 + n)
    for _ in range(20):
        letters = tuple(sorted(rng.sample(range(n + 1), rng.randint(1, min(n + 1, 4)))))
        k = rng.randint(0, 5)
        s = max(k, 1).bit_length() + rng.randint(0, 1)
        pick = lambda: tuple(sorted(rng.choice(letters) for _ in range(k)))
        left, right = pick(), pick()
        key = by_rank(n, k, {(left, right): None}).popitem()[0]
        assert symbols._decoded(n, letters, s)[code_oracle(letters, s, left, right)] == (k, key)
        # a left cell splits its holomorphic group J, with weight
        # binom(J, alpha), and a right cell its antiholomorphic group P, with
        # weight P!/(P - alpha)!; the other group's code is the table's
        whole, hol, mask = code_oracle(letters, s, left, right), len(letters) * s, (1 << s) - 1
        for right_side, fixed, split, weigh in ((False, left, right, comb), (True, right, left, perm)):
            width, codes, splits = symbols._splits(n, k, letters, s, right_side)
            assert width == comb(n + k, k)
            other = code_oracle(letters, s, fixed, ()) << (hol if right_side else 0)
            assert codes[_lex_rank(n, fixed)] << (hol if right_side else 0) == other
            seen = set()
            for size, group in enumerate(splits[_lex_rank(n, split)]):
                for alpha, rest, weight in group:
                    taken = [alpha >> (p * s) & mask for p in range(len(letters))]
                    assert sum(taken) == size and alpha not in seen
                    seen.add(alpha)
                    assert weight == prod(weigh(split.count(a), t) for a, t in zip(letters, taken))
                    assert other + rest + (alpha << (0 if right_side else hol)) == whole
            assert len(seen) == prod(split.count(a) + 1 for a in set(split))


def _sparse_symbol(rng, n, k, cells):
    entries = {}
    while len(entries) < cells:
        key = tuple(tuple(sorted(rng.randrange(n + 1) for _ in range(k))) for _ in range(2))
        entries[key] = _value(rng)
    return SymbolTensor(n, k, entries)


def test_sparse_cp16_kernels_match_tuple_oracles():
    n = 16
    rng = random.Random(2130)
    a = StarElement(n, 3, {r: _sparse_symbol(rng, n, r, 4 if r else 1) for r in range(4)})
    b = StarElement(n, 3, {r: _sparse_symbol(rng, n, r, 4 if r else 1) for r in range(4)})
    for value in vars(symbols).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    product = star_elements(a, b)
    visited = 0
    for k, tensor in product.components.items():
        pairs = by_pair(n, k, tensor.cells)
        assert _times_x(n, k, tensor.cells) == by_rank(n, k + 1, times_x_oracle(n, pairs))
        visited += len(tensor.cells)
        if k:
            expected = reduce_degree_oracle(n, pairs)
            lowered = reduce_degree(tensor)
            assert (None if lowered is None else (lowered.den, lowered.cells)) == (
                None if expected is None else _normalised(tensor.den, by_rank(n, k - 1, expected))
            )
        grown = embed(tensor, 1)
        assert reduce_degree(grown) == tensor
    # the x table holds one entry per cell raised, not a dense table
    raised = sum(len(symbols._raised(n, k)) for k in range(8))
    assert 0 < raised == visited < comb(n + 6, 6) ** 2
    assert product.relevel(8).minimized() == product.minimized()
