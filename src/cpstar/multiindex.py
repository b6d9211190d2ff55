"""Sorted multi-index utilities.

Symbol tensors are symmetric in each index group, so every index tuple is
stored by its sorted representative.  ``multiplicity(I)`` counts the distinct
orderings of ``I`` (the multinomial ``k! / prod(c_a!)``); it converts between
stored tensor entries and the coefficients of the associated polynomial, i.e.
an unrestricted Einstein sum over index tuples equals a sum over sorted
representatives weighted by their multiplicity.

``_lex_rank`` and ``_lex_unrank`` convert between a sorted k-tuple and its
position in ``sorted_tuples(n, k)`` by arithmetic, without building the
enumeration; the contraction kernel keys its cells by these ranks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial

__all__ = [
    "merge_indices",
    "multiplicity",
    "sorted_tuples",
    "submultiset_splits",
]

Index = tuple[int, ...]


@lru_cache(maxsize=1 << 10)
def multiplicity(index: Index) -> int:
    """Number of distinct orderings of a sorted index tuple.

    Cached, like every index cache here, with a bound: far above the few
    dozen tuples a CP^1-CP^3 computation meets, it keeps a process that
    sees many shapes from growing without end."""
    result = factorial(len(index))
    run = 1
    for j in range(1, len(index)):
        if index[j] == index[j - 1]:
            run += 1
        else:
            result //= factorial(run)
            run = 1
    return result // factorial(run) if index else 1


@lru_cache(maxsize=64)
def sorted_tuples(n: int, k: int) -> tuple[Index, ...]:
    """All nondecreasing k-tuples over the alphabet {0, ..., n}."""
    return tuple(combinations_with_replacement(range(n + 1), k))


@lru_cache(maxsize=1 << 14)
def merge_indices(left: Index, right: Index) -> Index:
    """Sorted union (with repetitions) of two sorted tuples.

    Cached: the contraction, ``x``-multiplication and division kernels merge
    the same few hundred index pairs over and over.  The bound keeps the
    cache small however many shapes a process sees."""
    return tuple(sorted(left + right))


def _lex_rank(n: int, index: Index) -> int:
    """Position of a sorted tuple in ``sorted_tuples(n, len(index))``.

    The tuples before it are those that agree with it up to some position
    i and have a smaller letter there.  With ``m`` letters from position i
    on, the ones whose letter at i is v >= the letter before count
    C(n - v + m - 1, m - 1), and their sum over v is a difference of two
    binomials."""
    rank = 0
    low = 0
    m = len(index)
    for letter in index:
        rank += comb(n - low + m, m) - comb(n - letter + m, m)
        low = letter
        m -= 1
    return rank


def _lex_unrank(n: int, k: int, rank: int) -> Index:
    """The sorted k-tuple at position ``rank`` of ``sorted_tuples(n, k)``.

    It inverts :func:`_lex_rank` one position at a time: with ``m`` letters
    from here on and the letter before at ``low``, the letter here is the
    largest v whose count ``C(n - low + m, m) - C(n - v + m, m)`` of
    earlier tuples is at most what is left of ``rank``, found by bisection
    in log2(n) binomials."""
    out = []
    low = 0
    for m in range(k, 0, -1):
        top = comb(n - low + m, m)
        letter, high = low, n
        while letter < high:
            mid = (letter + high + 1) // 2
            if top - comb(n - mid + m, m) <= rank:
                letter = mid
            else:
                high = mid - 1
        rank -= top - comb(n - letter + m, m)
        out.append(letter)
        low = letter
    return tuple(out)


def _subtract_indices(whole: Index, part: Index) -> Index:
    """Remove the multiset ``part`` from ``whole`` (both sorted); assumes containment."""
    out = list(whole)
    for a in part:
        out.remove(a)
    return tuple(out)


@lru_cache(maxsize=1 << 10)
def submultiset_splits(index: Index, r: int) -> tuple[tuple[Index, Index], ...]:
    """All distinct splits of a sorted tuple into (submultiset of size r, rest)."""
    if r < 0 or r > len(index):
        return ()
    if r == 0:
        return (((), index),)
    letters = sorted(set(index))
    counts = {a: index.count(a) for a in letters}
    splits: list[tuple[Index, Index]] = []

    def walk(pos: int, remaining: int, chosen: list[int]) -> None:
        if remaining == 0:
            alpha = tuple(chosen)
            splits.append((alpha, _subtract_indices(index, alpha)))
            return
        if pos == len(letters):
            return
        letter = letters[pos]
        available = counts[letter]
        # take t copies of this letter, t from high to low keeps output sorted-stable
        for t in range(min(available, remaining), -1, -1):
            walk(pos + 1, remaining - t, chosen + [letter] * t)

    walk(0, r, [])
    return tuple(splits)
