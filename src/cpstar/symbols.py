"""Symbols of operators on spaces of homogeneous holomorphic polynomials.

A degree-``k`` symbol on CP^n is the function

    sigma(A)(z) = sigma_tilde(A)(z) / x**k,      x = sum_i |z^i|**2,

where ``sigma_tilde(A)`` is the bihomogeneous polynomial obtained by fully
contracting a tensor ``A`` — symmetric separately in its ``k`` antiholomorphic
and ``k`` holomorphic indices — with conjugated and plain coordinates.  An
unrestricted sum over index tuples equals the entry at the sorted
representative times the number of distinct orderings of each group (see
:mod:`cpstar.multiindex`).

A :class:`SymbolTensor` has one number format: the polynomial coefficients
of sigma_tilde (entry times mult(I) times mult(J)) as Gaussian-integer cells
over one least tensor-wide denominator.  A cell is keyed by one int, ``rank(I)
W + rank(J)``: ``rank`` is the lex rank of a sorted index among the sorted
k-tuples (:func:`cpstar.multiindex._lex_rank`) and ``W = C(n + k, k)`` their
number.  Int order is the lex order of the pairs ``(I, J)``, so sorted cells
are in the order the JSON lists them.  Every operation reads and writes the
cells with int arithmetic and builds its result through one normalising
constructor, ``SymbolTensor._from_cells``:

* ``_linear``, the sum of int, ``Fraction`` and ``GaussRational``
  multiples of tensors in one accumulator, behind ``+``, ``-``, negation,
  :meth:`SymbolTensor.scale` (the one public scaling), the sums of
  :class:`cpstar.star.RawNuSeries` and the linear steps of
  :meth:`cpstar.star.StarElement.minimized` and
  :func:`cpstar.quotient.ideal_factorize`;
* :func:`embed` (multiplication of sigma_tilde by x) and
  :func:`reduce_degree` (exact division by x);
* :func:`wick_contraction`, the degree-lowering contraction operator, and
  :func:`pointwise_mul`, its order 0.  Both are parts of one kernel,
  ``_wick_sums``, which :func:`cpstar.star.star_elements` and
  :func:`cpstar.star.star_symbols` run in full.

The kernel is the Wick product on C^(n+1) at hbar = 1.  For F = sum_r
phi_r and G = sum_s psi_s, sums of sigma_tilde polynomials of any degrees,
it computes

    sum over multisets alpha of (1/alpha!) d_z^alpha F * dbar_z^alpha G,

graded by degree: the part of degree k + l - t of a pair of degrees k and
l is 1/t! times the t-th contraction.  On the monomials zbar^I z^J of F and
zbar^P z^Q of G (I, J, P, Q exponent vectors here) a term is
binom(J, alpha) P!/(P - alpha)! zbar^(I + P - alpha) z^(J - alpha + Q), so
every weight is an int, a product over the letters that already holds the
1/alpha!.  Each product keys its monomials by an additive code over the
sorted letters its factors use, m of them, with digits of s bits, s the
bit length of the largest output degree:

    code(zbar^I z^J) = sum_a I_a 2^(pos(a) s) + J_a 2^((m + pos(a)) s).

No output digit reaches 2^s, so the code of a term is the code of the
left cell's rest zbar^I z^(J - alpha) plus that of the right cell's rest
zbar^(P - alpha) z^Q: one int addition.  The right factor is indexed once
by alpha and each left cell walks its sub-multisets alpha once, each side
stopping at |alpha| = the other side's top degree, since a longer alpha
has no partner; each output code is decoded once to its degree and cell
key.  The code width follows the factors, not n, so a sparse product on
CP^1000000 has short codes.

The kernels never see an index pair.  Each reads the keys through a table
per shape, filled in as cells need it and bounded like every cache here:
``_raised`` gives the n + 1 keys of a cell times x, ``_divided`` the
quotient key of a cell divisible by its lead term of x, ``_letters`` the
letters of a cell, ``_codes`` the code of a sorted index, ``_splits`` its
splits as codes and weights, and ``_decoded`` the degree and cell key of
an output code.  Index pairs
appear only at the boundary, through the per-(n, k) tables of
:mod:`cpstar.multiindex`: ``_ranked`` for letter tuples in any order,
``_unranked`` for cell keys.

The Gaussian-rational tensor entries are a computed view,
:attr:`SymbolTensor.entries`, for checks and tests.  The public
constructor and the JSON loader check what they are given in one step,
``_checked_cells``, which reads ``_ranked``; the loader hands it the letters
as they came and the int parts of each ``"p/q"`` text, and the JSON dumper
formats ``cells`` over ``den`` times the weight ``_unranked`` gives, so
neither builds a ``GaussRational`` per entry.

:func:`wick_contraction_reference` is an independent implementation of the
contraction on purpose: one order of :func:`cpstar.zpoly.wick_orders`, the
literal Wick product of the expanded polynomials.  The tests and the
``oracle`` suite check both kernel entry points against it; nothing trusts
the kernel's weights without that.  :func:`operator_product` works on the
entries view and is the independent reference for the full contraction.
"""

from __future__ import annotations

from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import chain, product as iter_product
from math import comb, factorial, gcd, lcm, perm
from typing import Iterable, Mapping, Optional, Sequence

from .multiindex import (
    Index,
    _indices,
    _key_pair,
    _Lazy,
    _LENGTH,
    _RANGE,
    _ranked,
    _ranks,
    _Refused,
    _unranked,
    _width,
    merge_indices,
    multiplicity,
    sorted_tuples,
)
from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational, ScalarLike, _divided_out, _gauss, _normalised, _over_lcm, to_gauss
from .zpoly import ZPoly, wick_orders

__all__ = [
    "SymbolTensor",
    "embed",
    "eval_symbol",
    "identity_symbol",
    "operator_product",
    "pointwise_mul",
    "reduce_degree",
    "reduce_to_min",
    "symbol_of_matrix",
    "wick_contraction",
    "wick_contraction_reference",
]

EntryKey = tuple[Index, Index]
Cells = dict[int, tuple[int, int]]


# an entry as given: letters I and J, then (a, b, c, d) of a/b + (c/d) i, b, d > 0
Part = tuple[Sequence[int], Sequence[int], int, int, int, int]


def _gauss_parts(entries: Mapping[EntryKey, ScalarLike]) -> Iterable[Part]:
    """The public constructor's nonzero entries as parts, read lazily; their
    letters must be ints, as the loader's must be JSON integers."""
    for (left, right), value in entries.items():
        p, q, m = to_gauss(value)._ints()
        if p or q:
            for letters in (left, right):
                if any(type(a) is not int for a in letters):
                    raise ValueError(f"index letters must be ints, got {letters!r}")
            yield left, right, p, m, q, m


def _checked_cells(n: int, k: int, parts: Iterable[Part], any_order: bool = False) -> tuple[int, Cells]:
    """The one validating step for tensors given by their entries.

    Entries whose letters sort to the same pair add up; zero sums are
    dropped unchecked, and the first other one in a bad pair is refused
    (see :func:`_refuse`).  Unless ``any_order``, unsorted letters are
    refused too, at once: the public constructor hands over nonzero
    entries at distinct keys.  The first pass adds up the pairs over a
    common denominator, the second scales them to int cells and takes
    their gcd.  The result is ``(den, cells)`` as :class:`SymbolTensor`
    stores them."""
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    ranked = _ranked(n, k)
    sums: dict[tuple, tuple] = {}
    den = 1
    for left, right, a, b, c, d in parts:
        lv, rv = ranked[left], ranked[right]
        if not any_order and (lv.__class__ is _Refused or rv.__class__ is _Refused or not (lv[2] and rv[2])):
            _refuse(n, k, left, right, any_order)
        pair = lv[0], rv[0]
        seen = sums.get(pair)
        if seen is not None:
            a0, b0, c0, d0 = seen[4:]
            a, b, c, d = a0 * b + a * b0, b0 * b, c0 * d + c * d0, d0 * d
        sums[pair] = left, right, lv, rv, a, b, c, d
        if b != 1 or d != 1:
            den = lcm(den, b, d)
    width, common, cells = 0, den, {}
    for left, right, lv, rv, a, b, c, d in sums.values():
        if not (a or c):
            continue
        if lv.__class__ is _Refused or rv.__class__ is _Refused:
            _refuse(n, k, left, right, any_order)
        width = width or comb(n + k, k)
        scale = lv[1] * rv[1] * den
        re, im = a * (scale // b), c * (scale // d)
        if common != 1:
            common = gcd(common, re, im)
        cells[lv[0] * width + rv[0]] = re, im
    return _divided_out(den, common, cells)


def _refuse(n: int, k: int, left: Sequence[int], right: Sequence[int], any_order: bool) -> None:
    """Raise the error of a refused entry: a wrong length (shown sorted for
    the loader), a letter out of range, unsorted letters (unless
    ``any_order``) or a shape too wide, in that order."""
    ranked = _ranked(n, k)
    reasons = {value.reason for value in (ranked[left], ranked[right]) if value.__class__ is _Refused}
    if _LENGTH in reasons:
        shown = (tuple(sorted(left)), tuple(sorted(right))) if any_order else (left, right)
        raise ValueError(f"index length mismatch for degree {k}: {shown}")
    if _RANGE in reasons:
        raise ValueError(f"index letter out of range for n={n}")
    if not any_order and (list(left) != sorted(left) or list(right) != sorted(right)):
        raise ValueError("entries must use sorted index representatives")
    _width(n, k)  # the one reason left: the shape is too wide


class SymbolTensor:
    """Symmetric tensor of a degree-``k`` symbol on CP^n.

    ``cells`` maps the key ``rank(I) W + rank(J)`` of a sorted index pair
    ``(I, J)`` — antiholomorphic group first, ``W = C(n + k, k)`` — to the
    coefficient of zbar^I z^J in sigma_tilde times ``den``, a nonzero pair
    ``(re, im)`` of ints.  ``den`` is the least positive common
    denominator: gcd(den, every part) = 1, and the zero tensor has den 1.
    The tensor entry at ``(I, J)`` is the coefficient over mult(I) mult(J);
    :attr:`entries` computes all of them as ``GaussRational`` values.
    """

    __slots__ = ("n", "k", "den", "cells")

    def __init__(self, n: int, k: int, entries: Mapping[EntryKey, ScalarLike] | None = None) -> None:
        self.n = n
        self.k = k
        self.den, self.cells = _checked_cells(n, k, _gauss_parts(entries or {}))

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_parts(cls, n: int, k: int, parts: Iterable[Part]) -> "SymbolTensor":
        """Build from the JSON loader's parts, letters in any order, checked
        as the public constructor checks its entries."""
        tensor = object.__new__(cls)
        tensor.n = n
        tensor.k = k
        tensor.den, tensor.cells = _checked_cells(n, k, parts, any_order=True)
        return tensor

    @classmethod
    def _from_cells(cls, n: int, k: int, den: int, cells: Mapping[int, Sequence[int]]) -> "SymbolTensor":
        """Wrap polynomial-coefficient cells over ``den`` (positive), keyed
        as :attr:`cells` is for degree ``k`` on CP^n; zero cells are dropped
        and the denominator is made least."""
        tensor = object.__new__(cls)
        tensor.n = n
        tensor.k = k
        tensor.den, tensor.cells = _normalised(den, cells)
        return tensor

    @classmethod
    def zero(cls, n: int, k: int) -> "SymbolTensor":
        return cls(n, k)

    @classmethod
    def constant(cls, n: int, value: ScalarLike) -> "SymbolTensor":
        return cls(n, 0, {((), ()): value})

    @classmethod
    def basis_entry(cls, n: int, k: int, left: Index, right: Index, value: ScalarLike = 1) -> "SymbolTensor":
        return cls(n, k, {(tuple(sorted(left)), tuple(sorted(right))): value})

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> dict[EntryKey, GaussRational]:
        """The nonzero tensor entries, ``cells[I, J] / (den mult(I) mult(J))``.

        Built afresh on every access: read it once into a local."""
        den = self.den
        unranked = _unranked(self.n, self.k)
        out = {}
        for key, (re, im) in self.cells.items():
            left, right, weight = unranked[key]
            out[left, right] = _gauss(re, im, den * weight)
        return out

    def poly_items(self) -> Iterable[tuple[EntryKey, GaussRational]]:
        """Coefficients of sigma_tilde on sorted monomial representatives."""
        den = self.den
        unranked = _unranked(self.n, self.k)
        for key, (re, im) in self.cells.items():
            left, right, _ = unranked[key]
            yield (left, right), _gauss(re, im, den)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cells

    def __bool__(self) -> bool:
        return bool(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolTensor):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.den == other.den
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"SymbolTensor(n={self.n}, k={self.k}, {len(self.cells)} entries)"

    # -- linear structure ---------------------------------------------

    def _require_compatible(self, other: "SymbolTensor") -> None:
        if self.n != other.n or self.k != other.k:
            raise ValueError(
                f"incompatible symbols: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )

    def __add__(self, other: "SymbolTensor") -> "SymbolTensor":
        if not isinstance(other, SymbolTensor):
            return NotImplemented
        self._require_compatible(other)
        return _linear(self.n, self.k, ((self, 1), (other, 1)))

    def __sub__(self, other: "SymbolTensor") -> "SymbolTensor":
        if not isinstance(other, SymbolTensor):
            return NotImplemented
        self._require_compatible(other)
        return _linear(self.n, self.k, ((self, 1), (other, -1)))

    def __neg__(self) -> "SymbolTensor":
        return _linear(self.n, self.k, ((self, -1),))

    def scale(self, factor: ScalarLike) -> "SymbolTensor":
        """Multiply by an int, ``Fraction`` or ``GaussRational``: the
        one-term sum of ``_linear``."""
        return _linear(self.n, self.k, ((self, factor),))

    # -- polynomial view ----------------------------------------------

    def to_zpoly(self) -> ZPoly:
        """Expand sigma_tilde into an explicit polynomial in z and z-bar."""
        width = self.n + 1

        def exponents(index: Index) -> tuple[int, ...]:
            counts = [0] * width
            for a in index:
                counts[a] += 1
            return tuple(counts)

        return ZPoly(self.n, {(exponents(left), exponents(right)): coeff for (left, right), coeff in self.poly_items()})

    @classmethod
    def from_zpoly(cls, n: int, k: int, poly: ZPoly) -> "SymbolTensor":
        """The degree-``k`` tensor whose sigma_tilde is ``poly``, a
        ``ZPoly(n)`` bihomogeneous of degree ``(k, k)``.  Each exponent
        vector is checked and ranked once per call, however many terms
        share it."""
        if poly.n != n:
            raise ValueError(f"a symbol on CP^{n} is read from a ZPoly({n}), not a ZPoly({poly.n})")
        ranks, width = _ranks(n, k), _width(n, k) if poly.terms else 0
        vectors = {exponents for key in poly.terms for exponents in key}
        if any(sum(exponents) != k for exponents in vectors):
            raise ValueError(f"polynomial is not bihomogeneous of degree ({k}, {k})")
        rank = {exponents: ranks[tuple(a for a, e in enumerate(exponents) for _ in range(e))] for exponents in vectors}
        parts: dict[int, tuple[int, int, int, int, int]] = {}
        for (bar, hol), coeff in poly.terms.items():
            p, q, m = to_gauss(coeff)._ints()
            parts[rank[bar] * width + rank[hol]] = (p, m, q, m, 1)
        return cls._from_cells(n, k, *_over_lcm(parts))


def symbol_of_matrix(matrix: Sequence[Sequence[ScalarLike]]) -> SymbolTensor:
    """Degree-1 symbol tensor of an (n+1) x (n+1) matrix."""
    if not matrix:
        raise ValueError("matrix must not be empty")
    n = len(matrix) - 1
    entries: dict[EntryKey, ScalarLike] = {}
    for i, row in enumerate(matrix):
        if len(row) != n + 1:
            raise ValueError("matrix must be square")
        for j, value in enumerate(row):
            entries[((i,), (j,))] = value
    return SymbolTensor(n, 1, entries)


def identity_symbol(n: int, k: int) -> SymbolTensor:
    """Tensor with sigma_tilde = x**k; unit for the pointwise product and the
    identity operator under :func:`operator_product`."""
    width = comb(n + k, k)
    cells = {rank * (width + 1): (multiplicity(index), 0) for rank, index in enumerate(sorted_tuples(n, k))}
    return SymbolTensor._from_cells(n, k, 1, cells)


def eval_symbol(tensor: SymbolTensor, z: Sequence[ScalarLike]) -> GaussRational:
    """Evaluate the symbol at a nonzero affine point, exactly."""
    if len(z) != tensor.n + 1:
        raise ValueError(f"point must have {tensor.n + 1} coordinates")
    zs = [to_gauss(c) for c in z]
    conj = [c.conjugate() for c in zs]
    x = GAUSS_ZERO
    for c, cc in zip(zs, conj):
        x = x + c * cc
    if not x:
        raise ValueError("symbols are only defined away from the origin")
    total = GAUSS_ZERO
    for (left, right), coeff in tensor.poly_items():
        term = coeff
        for a in left:
            term = term * conj[a]
        for a in right:
            term = term * zs[a]
        total = total + term
    denominator = GAUSS_ONE
    for _ in range(tensor.k):
        denominator = denominator * x
    return total / denominator


def pointwise_mul(left: SymbolTensor, right: SymbolTensor) -> SymbolTensor:
    """Symmetrized tensor of the pointwise product of two symbols: the
    order-0 contraction."""
    if left.n != right.n:
        raise ValueError("pointwise product needs matching n")
    return wick_contraction(left, right, 0)


def _times_x(n: int, k: int, cells: Mapping[int, Sequence[int]]) -> dict[int, list[int]]:
    """Polynomial-coefficient cells of a degree-``k`` sigma_tilde multiplied
    by x = sum_a zbar_a z_a, as fresh ``[re, im]`` lists of degree k + 1."""
    grown: dict[int, list[int]] = {}
    raised = _raised(n, k)
    for key, (c_re, c_im) in cells.items():
        for key in raised[key]:
            cell = grown.get(key)
            if cell is None:
                grown[key] = [c_re, c_im]
            else:
                cell[0] += c_re
                cell[1] += c_im
    return grown


def _coefficient_ints(c: ScalarLike) -> tuple[int, int, int]:
    """An int, ``Fraction`` or ``GaussRational`` as the ints ``(p, q, m)`` of ``(p + q i) / m``."""
    if isinstance(c, GaussRational):
        return c._ints()
    return c.numerator, 0, c.denominator


def _add_scaled(accum: dict[int, list[int]], cells: Mapping[int, Sequence[int]], p: int, q: int = 0) -> None:
    """Add the Gaussian integer ``p + q i`` times the int cells ``cells`` into
    ``accum`` in place; a complex factor is multiplied out first."""
    if q:
        cells, p = {key: (a * p - b * q, a * q + b * p) for key, (a, b) in cells.items()}, 1
    for key, (c_re, c_im) in cells.items():
        cell = accum.get(key)
        if cell is None:
            accum[key] = [c_re * p, c_im * p]
        else:
            cell[0] += c_re * p
            cell[1] += c_im * p


def _linear(n: int, k: int, terms: Iterable[tuple[SymbolTensor, ScalarLike]]) -> SymbolTensor:
    """The sum of ``c T`` over the ``terms`` ``(T, c)``, degree-``k``
    tensors on CP^n with int, ``Fraction`` or ``GaussRational``
    coefficients ``c = (p + q i) / m``: ``p + q i`` times the cells of every
    term add into one accumulator over the lcm of their ``T.den m``,
    normalised once.  A lone term with coefficient 1 is returned as it is."""
    terms = [(tensor, _coefficient_ints(c)) for tensor, c in terms if c and tensor.cells]
    if len(terms) == 1 and terms[0][1] == (1, 0, 1):
        return terms[0][0]
    den = lcm(*(tensor.den * m for tensor, (_, _, m) in terms))
    accum: dict[int, list[int]] = {}
    for tensor, (p, q, m) in terms:
        scale = den // (tensor.den * m)
        _add_scaled(accum, tensor.cells, p * scale, q * scale)
    return SymbolTensor._from_cells(n, k, den, accum)


def embed(tensor: SymbolTensor, times: int = 1) -> SymbolTensor:
    """Raise the degree by multiplying sigma_tilde with x**times (same symbol).

    The cells are multiplied by x over the tensor's own denominator."""
    if times < 0:
        raise ValueError("embed requires times >= 0")
    if not times:
        return tensor
    cells = tensor.cells
    for k in range(tensor.k, tensor.k + times):
        cells = _times_x(tensor.n, k, cells)
    return SymbolTensor._from_cells(tensor.n, tensor.k + times, tensor.den, cells)


def reduce_degree(tensor: SymbolTensor) -> Optional[SymbolTensor]:
    """Divide sigma_tilde by x exactly, or return None when not divisible.

    Long division in the lex order zbar_0 > ... > zbar_n > z_0 > ... > z_n,
    which ranks a monomial zbar^L z^R higher the smaller its sorted pair
    ``(L, R)`` is, so x leads with zbar_0 z_0.  {x} is a Groebner basis, so
    the quotient is unique, and the result is None as soon as the leading
    monomial left lacks the letter 0 in either group.

    x is monic in its lead monomial, so the division runs on the cells and
    the quotient stays integral over the tensor's denominator.  The cell
    keys order the monomials as their pairs do, so the heap of keys pops
    the lead monomial first, and ``_divided`` gives each key's step.
    """
    if tensor.k == 0:
        raise ValueError("cannot reduce a degree-0 symbol")
    divided = _divided(tensor.n, tensor.k)
    remainder = {key: list(cell) for key, cell in tensor.cells.items()}
    heap = list(remainder)
    heapify(heap)
    quotient: dict[int, list[int]] = {}
    while heap:
        key = heappop(heap)
        c_re, c_im = cell = remainder.pop(key)
        if not (c_re or c_im):
            continue
        step = divided[key]
        if step is None:
            return None
        below, others = step
        quotient[below] = cell
        # the a = 0 term of coeff * x is the monomial just taken; the others
        # rank below it, so each monomial enters the heap once
        for key in others:
            existing = remainder.get(key)
            if existing is None:
                remainder[key] = [-c_re, -c_im]
                heappush(heap, key)
            else:
                existing[0] -= c_re
                existing[1] -= c_im
    return SymbolTensor._from_cells(tensor.n, tensor.k - 1, tensor.den, quotient)


def reduce_to_min(tensor: SymbolTensor) -> SymbolTensor:
    """Repeatedly divide by x until the representation has minimal degree."""
    current = tensor
    while current.k > 0:
        lowered = reduce_degree(current)
        if lowered is None:
            return current
        current = lowered
    return current


def _times_letters(n: int, k: int, left: Index, right: Index, letters: range) -> tuple[int, ...]:
    """The degree-(k + 1) keys of zbar_a z_a zbar^left z^right, a in ``letters``."""
    ranks, width = _ranks(n, k + 1), comb(n + k + 1, k + 1)
    return tuple(ranks[merge_indices(left, (a,))] * width + ranks[merge_indices(right, (a,))] for a in letters)


def _raised_keys(n: int, k: int, key: int) -> tuple[int, ...]:
    return _times_letters(n, k, *_key_pair(n, k, key), range(n + 1))


@lru_cache(maxsize=64)
def _raised(n: int, k: int) -> _Lazy:
    """Cell key of degree ``k`` -> the keys of zbar_a z_a times its monomial,
    a = 0..n, in degree k + 1: the n + 1 cells :func:`_times_x` adds it to."""
    return _Lazy(partial(_raised_keys, n, k))


def _division_step(n: int, k: int, key: int) -> Optional[tuple[int, tuple[int, ...]]]:
    left, right = _key_pair(n, k, key)
    if left[0] or right[0]:
        return None
    left, right = left[1:], right[1:]
    below = _ranks(n, k - 1)
    return below[left] * comb(n + k - 1, k - 1) + below[right], _times_letters(n, k - 1, left, right, range(1, n + 1))


@lru_cache(maxsize=64)
def _divided(n: int, k: int) -> _Lazy:
    """Cell key of degree ``k`` -> one step of :func:`reduce_degree`: None
    when its monomial zbar^I z^J lacks the lead term zbar_0 z_0 of x, else
    the key of zbar^I z^J / (zbar_0 z_0) in degree k - 1 and the keys of
    that quotient times zbar_a z_a for a = 1..n."""
    return _Lazy(partial(_division_step, n, k))


def _pair_letters(n: int, k: int, key: int) -> tuple[int, ...]:
    return tuple(dict.fromkeys(chain(*_key_pair(n, k, key))))


@lru_cache(maxsize=64)
def _letters(n: int, k: int) -> _Lazy:
    """Cell key of degree ``k`` -> the distinct letters of its index pair."""
    return _Lazy(partial(_pair_letters, n, k))


def _shifts(letters: Index, s: int) -> dict[int, int]:
    """Each letter's bit offset in the antiholomorphic digits of a code."""
    return {a: position * s for position, a in enumerate(letters)}


def _index_code(n: int, k: int, shifts: Mapping[int, int], rank: int) -> int:
    return sum(1 << shifts[a] for a in _indices(n, k)[rank])


@lru_cache(maxsize=64)
def _codes(n: int, k: int, letters: Index, s: int) -> _Lazy:
    """Lex rank of a sorted k-tuple -> its code over ``letters`` with digits
    of ``s`` bits, in the antiholomorphic digits."""
    return _Lazy(partial(_index_code, n, k, _shifts(letters, s)))


def _index_splits(n: int, k: int, shifts: Mapping[int, int], offset: int, right: bool, rank: int) -> tuple[tuple, ...]:
    """The splits of one index over its sub-multisets alpha, as
    ``(code(alpha), code(rest) << offset, weight)`` grouped by |alpha|;
    the weight is a product over the letters."""
    index = _indices(n, k)[rank]
    digits = [(shifts[a], index.count(a)) for a in dict.fromkeys(index)]
    groups: list[list] = [[] for _ in range(k + 1)]
    for taken in iter_product(*(range(e + 1) for _, e in digits)):
        alpha, rest, weight = 0, 0, 1
        for (shift, e), t in zip(digits, taken):
            alpha += t << shift
            rest += (e - t) << shift
            weight *= perm(e, t) if right else comb(e, t)
        groups[sum(taken)].append((alpha, rest << offset, weight))
    return tuple(map(tuple, groups))


@lru_cache(maxsize=128)
def _splits(n: int, k: int, letters: Index, s: int, right: bool) -> tuple[int, _Lazy, _Lazy]:
    """A product's tables of a degree-``k`` factor, in the codes over
    ``letters`` with digits of ``s`` bits: ``W = C(n + k, k)``, which
    splits a cell key into two lex ranks, the :func:`_codes` table, and
    the lex rank of a sorted k-tuple -> its splits (:func:`_index_splits`).

    A left factor splits its holomorphic index J: the rest J - alpha goes
    to the holomorphic digits, with weight binom(J, alpha).  A right factor
    (``right``) splits its antiholomorphic index P: the rest P - alpha
    stays in the antiholomorphic digits, with weight P!/(P - alpha)!."""
    offset = 0 if right else len(letters) * s
    splits = _Lazy(partial(_index_splits, n, k, _shifts(letters, s), offset, right))
    return comb(n + k, k), _codes(n, k, letters, s), splits


def _decode(n: int, letters: Index, s: int, code: int) -> tuple[int, int]:
    mask, hol = (1 << s) - 1, len(letters) * s
    left: list[int] = []
    right: list[int] = []
    for position, a in enumerate(letters):
        left += [a] * ((code >> (position * s)) & mask)
        right += [a] * ((code >> (hol + position * s)) & mask)
    k = len(left)
    ranks = _ranks(n, k)
    return k, ranks[tuple(left)] * comb(n + k, k) + ranks[tuple(right)]


@lru_cache(maxsize=64)
def _decoded(n: int, letters: Index, s: int) -> _Lazy:
    """Code of a monomial over ``letters`` with digits of ``s`` bits ->
    ``(degree, cell key)``."""
    return _Lazy(partial(_decode, n, letters, s))


# one factor of a product: (degree, cells, an int every cell is scaled by)
Factor = tuple[int, Mapping[int, Sequence[int]], int]


def _wick_sums(n: int, lefts: Sequence[Factor], rights: Sequence[Factor], order: Optional[int] = None) -> dict[int, dict[int, list[int]]]:
    """The Wick product at hbar = 1 of F, the sum of the ``lefts``, and G,
    the sum of the ``rights`` (see the module docstring), or only its
    |alpha| = ``order`` part: int cells per output degree, over the product
    of the denominators the factors' ints bring their cells to.

    A split alpha of one side meets only the splits of the other side with
    the same alpha, so the right splits are indexed only up to |alpha| =
    the left side's top degree and each left cell walks its splits only up
    to the right side's top degree."""
    used: set[int] = set()
    for k, cells, _ in (*lefts, *rights):
        used.update(chain.from_iterable(map(_letters(n, k).__getitem__, cells)))
    letters = tuple(sorted(used))
    top_left = max(k for k, _, _ in lefts)
    top_right = max(k for k, _, _ in rights)
    s = (top_left + top_right).bit_length()
    hol = len(letters) * s
    if order is None:
        pick_right, pick_left = slice(top_left + 1), slice(top_right + 1)
    else:
        pick_right = pick_left = slice(order, order + 1)
    by_alpha: dict[int, list[tuple[int, int, int]]] = {}
    matches_of = by_alpha.get
    for l, cells, factor in rights:
        width, codes, splits = _splits(n, l, letters, s, True)
        for key, (b_re, b_im) in cells.items():
            p, q = divmod(key, width)
            fixed = codes[q] << hol
            b_re *= factor
            b_im *= factor
            for group in splits[p][pick_right]:
                for alpha, rest, w in group:
                    entry = fixed + rest, b_re * w, b_im * w
                    matches = matches_of(alpha)
                    if matches is None:
                        by_alpha[alpha] = [entry]
                    else:
                        matches.append(entry)
    accum: dict[int, list[int]] = {}
    cell_of = accum.get
    for k, cells, factor in lefts:
        width, codes, splits = _splits(n, k, letters, s, False)
        for key, (va_re, va_im) in cells.items():
            i, j = divmod(key, width)
            fixed = codes[i]
            va_re *= factor
            va_im *= factor
            for group in splits[j][pick_left]:
                for alpha, rest, w in group:
                    matches = matches_of(alpha)
                    if matches is None:
                        continue
                    head = fixed + rest
                    a_re = va_re * w
                    a_im = va_im * w
                    for tail, b_re, b_im in matches:
                        code = head + tail
                        cell = cell_of(code)
                        if cell is None:
                            accum[code] = [a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re]
                        else:
                            cell[0] += a_re * b_re - a_im * b_im
                            cell[1] += a_re * b_im + a_im * b_re
    decoded = _decoded(n, letters, s)
    sums: list[dict[int, list[int]]] = [{} for _ in range(1 << s)]
    for code, cell in accum.items():
        degree, key = decoded[code]
        sums[degree][key] = cell
    return {degree: cells for degree, cells in enumerate(sums) if cells}


def wick_contraction(left: SymbolTensor, right: SymbolTensor, r: int) -> SymbolTensor:
    """Contract ``r`` holomorphic indices of ``left`` against ``r``
    antiholomorphic indices of ``right``.

    This is the degree-(k + l - r) tensor of the r-th bidifferential operator
    of the star product: differentiate the first factor holomorphically and
    the second antiholomorphically, r times each, and contract the derivative
    directions.  On stored entries that amounts to an Einstein contraction
    followed by symmetrization, with the combinatorial prefactor
    ``k!/(k-r)! * l!/(l-r)!`` from choosing which factors to differentiate.

    It is r! times the |alpha| = r part of the Wick kernel
    :func:`_wick_sums`, over the product of the two denominators.
    """
    if left.n != right.n:
        raise ValueError("contraction needs matching n")
    k, l = left.k, right.k
    if not 0 <= r <= min(k, l):
        raise ValueError(f"contraction order r={r} outside 0..min({k}, {l})")
    sums = _wick_sums(left.n, [(k, left.cells, factorial(r))], [(l, right.cells, 1)], r)
    return SymbolTensor._from_cells(left.n, k + l - r, left.den * right.den, sums.get(k + l - r, {}))


def wick_contraction_reference(left: SymbolTensor, right: SymbolTensor, r: int) -> SymbolTensor:
    """Oracle for :func:`wick_contraction` by literal differentiation.

    Expands both sigma_tilde polynomials and reads order r of their literal
    Wick product, :func:`cpstar.zpoly.wick_orders`.  Independent of the
    stored-entry combinatorics; intentionally slow and simple.
    """
    if left.n != right.n:
        raise ValueError("contraction needs matching n")
    k, l = left.k, right.k
    if not 0 <= r <= min(k, l):
        raise ValueError(f"contraction order r={r} outside 0..min({k}, {l})")
    orders = wick_orders(left.to_zpoly(), right.to_zpoly())
    return SymbolTensor.from_zpoly(left.n, k + l - r, orders[r] if r < len(orders) else ZPoly(left.n))


def operator_product(left: SymbolTensor, right: SymbolTensor) -> SymbolTensor:
    """Composition of two degree-``k`` tensors as operators (Einstein matrix
    product over one full index group)."""
    left._require_compatible(right)
    right_by_first: dict[Index, list[tuple[Index, GaussRational]]] = {}
    for (a, j), vb in right.entries.items():
        right_by_first.setdefault(a, []).append((j, vb))
    accum: dict[EntryKey, GaussRational] = {}
    for (i, a), va in left.entries.items():
        matches = right_by_first.get(a)
        if not matches:
            continue
        weighted = va * multiplicity(a)
        for j, vb in matches:
            key = (i, j)
            contrib = weighted * vb
            current = accum.get(key)
            accum[key] = contrib if current is None else current + contrib
    return SymbolTensor(left.n, left.k, {key: value for key, value in accum.items() if value})
