"""Sorted multi-index utilities.

Symbol tensors are symmetric in each index group, so every index tuple is
stored by its sorted representative.  ``multiplicity(I)`` counts the distinct
orderings of ``I`` (the multinomial ``k! / prod(c_a!)``); it converts between
stored tensor entries and the coefficients of the associated polynomial, i.e.
an unrestricted Einstein sum over index tuples equals a sum over sorted
representatives weighted by their multiplicity.

``_lex_rank`` and ``_lex_unrank`` convert between a sorted k-tuple and its
position in ``sorted_tuples(n, k)`` by arithmetic, without building the
enumeration; symbol tensors key their cells by these ranks.  The boundary
between index tuples and cell keys is a set of tables per (n, k), each a
``_Lazy`` dict filled as keys are read: ``_ranks`` and its inverse
``_indices``; ``_ranked``, from a letter tuple in any order to ``(rank,
multiplicity, already_sorted)`` of its sorted form, or to a ``_Refused``
marker that says why the tuple cannot index a tensor (a wrong length, a
letter out of range, or a shape over :data:`MAX_WIDTH_BITS`); and
``_unranked``, from a cell key ``rank(I) W + rank(J)`` to ``(I, J, mult(I)
mult(J))``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "merge_indices",
    "multiplicity",
    "sorted_tuples",
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

    Its caller in the package, ``symbols._times_letters``, runs once per
    key the ``_raised`` and ``_divided`` tables fill in, and merges each of
    the key's two indices with one letter at a time, so a cached merge
    serves every key that shares an index.  The bound keeps the cache small
    however many shapes a process sees."""
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


MAX_WIDTH_BITS = 256
"""Largest bit length of the number W = C(n + k, k) of sorted k-tuples of a
tensor with entries.  Ranking an index of a cell key takes 2k binomials of
about W's size, and unranking one k log2(n) of them.  On CP^1000000, on a
2-core x86-64 VM with Python 3.11, an index of degree 13 (W of 226 bits)
ranked in 0.02 ms and unranked in 0.14 ms; one of degree 1000 (11403 bits)
took 0.4 s and 3.7 s."""


def _width(n: int, k: int) -> int:
    """W = C(n + k, k) for a tensor with entries, refused over
    :data:`MAX_WIDTH_BITS` bits before it is counted in full, as
    C(n + k, k) >= 2**min(n, k)."""
    width = comb(n + k, k) if min(n, k) <= MAX_WIDTH_BITS else None
    if width is None or width.bit_length() > MAX_WIDTH_BITS:
        raise ValueError(f"a symbol on CP^{n} of degree {k} has over 2**{MAX_WIDTH_BITS} sorted index tuples")
    return width


class _Lazy(dict):
    """A dict that fills a missing entry from ``fill(key)`` the first time it
    is read.  The key tables here and the kernel tables of
    :mod:`cpstar.symbols` are made of these, so a table holds only the
    entries some cell has needed."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@lru_cache(maxsize=64)
def _ranks(n: int, k: int) -> _Lazy:
    """Sorted k-tuple -> its lex rank in ``sorted_tuples(n, k)``."""
    return _Lazy(partial(_lex_rank, n))


_LENGTH, _RANGE, _WIDE = range(3)


class _Refused(NamedTuple):
    """Why :func:`_ranked` refuses a letter tuple: not k letters, a letter
    outside 0..n, or a shape over :data:`MAX_WIDTH_BITS`.  The sorted
    ``letters`` let the entries of a refused pair add up too."""

    letters: tuple
    reason: int


def _rank_entry(n: int, k: int, letters: Sequence[int]) -> tuple[int, int, bool] | _Refused:
    ordered = tuple(sorted(letters))
    if len(ordered) != k:
        return _Refused(ordered, _LENGTH)
    if k and (ordered[0] < 0 or ordered[-1] > n):
        return _Refused(ordered, _RANGE)
    try:
        _width(n, k)
    except ValueError:
        return _Refused(ordered, _WIDE)
    return _ranks(n, k)[ordered], multiplicity(ordered), ordered == letters


@lru_cache(maxsize=64)
def _ranked(n: int, k: int) -> _Lazy:
    """Letter tuple, in any order -> ``(rank, multiplicity, already_sorted)``
    of its sorted form, or a :class:`_Refused` marker."""
    return _Lazy(partial(_rank_entry, n, k))


@lru_cache(maxsize=64)
def _indices(n: int, k: int) -> _Lazy:
    """Lex rank -> the sorted k-tuple there, the inverse of :func:`_ranks`."""
    return _Lazy(partial(_lex_unrank, n, k))


def _key_pair(n: int, k: int, key: int) -> tuple[Index, Index]:
    """The index pair ``(I, J)`` of the cell key ``rank(I) W + rank(J)`` of
    degree ``k``."""
    head, tail = divmod(key, comb(n + k, k))
    indices = _indices(n, k)
    return indices[head], indices[tail]


def _unrank_key(n: int, k: int, key: int) -> tuple[Index, Index, int]:
    left, right = _key_pair(n, k, key)
    return left, right, multiplicity(left) * multiplicity(right)


@lru_cache(maxsize=64)
def _unranked(n: int, k: int) -> _Lazy:
    """Cell key ``rank(I) W + rank(J)`` of degree ``k`` -> ``(I, J, mult(I)
    mult(J))``, the pair and the weight from its entry to its cell."""
    return _Lazy(partial(_unrank_key, n, k))
