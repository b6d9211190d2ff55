"""Symbols of operators on spaces of homogeneous holomorphic polynomials.

A degree-``k`` symbol on CP^n is the function

    sigma(A)(z) = sigma_tilde(A)(z) / x**k,      x = sum_i |z^i|**2,

where ``sigma_tilde(A)`` is the bihomogeneous polynomial obtained by fully
contracting a tensor ``A`` — symmetric separately in its ``k`` antiholomorphic
and ``k`` holomorphic indices — with conjugated and plain coordinates.  The
tensor is stored on sorted index representatives; an unrestricted sum over
index tuples equals the stored entry times the number of distinct orderings
of each group (see :mod:`cpstar.multiindex`).

Two independent implementations of the degree-lowering contraction operator
live here on purpose:

* :func:`wick_contraction` — combinatorial fast path on stored entries,
  an integer kernel: each factor is brought over its common denominator,
  the products are summed as Gaussian-integer pairs, and each output entry
  is normalised to a fraction once;
* :func:`wick_contraction_reference` — literal differentiation of the
  expanded polynomials via :mod:`cpstar.zpoly`.

The first is validated against the second in the test suite; nothing in the
package trusts the combinatorial prefactor without that cross-check.  Its
sums live in one private accumulator, ``_contract_into``, which adds a
weighted contraction into int cells in place; :func:`wick_contraction` and
:func:`pointwise_mul` (the order-0 contraction) wrap it for one pair of
tensors, and :func:`cpstar.star.star_elements` runs every contraction of an
element product through it in one integer pass.

:func:`embed` (multiplication of sigma_tilde by x) and :func:`reduce_degree`
(exact division by x) are integer kernels too.  Both take the polynomial
coefficients of a tensor as Gaussian-integer pairs over one common
denominator, do all of their sums on ints, and normalise each output entry
once.  Results the kernels and the linear operations build are canonical by
construction and skip the validation of the public constructor; the
constructor and the JSON loaders check everything they are given.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product as iter_product
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .multiindex import (
    Index,
    merge_indices,
    multiplicity,
    sorted_tuples,
    submultiset_splits,
)
from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational, ScalarLike, to_gauss
from .zpoly import ZPoly

__all__ = [
    "SymbolTensor",
    "embed",
    "eval_symbol",
    "identity_symbol",
    "operator_product",
    "pointwise_mul",
    "reduce_degree",
    "reduce_to_min",
    "same_function",
    "symbol_of_matrix",
    "symmetrize",
    "wick_contraction",
    "wick_contraction_reference",
]

EntryKey = tuple[Index, Index]


def _falling(k: int, r: int) -> int:
    out = 1
    for j in range(r):
        out *= k - j
    return out


class SymbolTensor:
    """Symmetric tensor of a degree-``k`` symbol on CP^n.

    ``entries`` maps sorted index pairs ``(I, J)`` — antiholomorphic group
    first — to nonzero Gaussian-rational values.
    """

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int, entries: Mapping[EntryKey, ScalarLike] | None = None) -> None:
        if n < 0 or k < 0:
            raise ValueError("need n >= 0 and k >= 0")
        self.n = n
        self.k = k
        store: dict[EntryKey, GaussRational] = {}
        if entries:
            for (left, right), value in entries.items():
                value = to_gauss(value)
                if not value:
                    continue
                if len(left) != k or len(right) != k:
                    raise ValueError(f"index length mismatch for degree {k}: {(left, right)}")
                if any(not (0 <= a <= n) for a in left + right):
                    raise ValueError(f"index letter out of range for n={n}")
                if tuple(sorted(left)) != tuple(left) or tuple(sorted(right)) != tuple(right):
                    raise ValueError("entries must use sorted index representatives")
                store[(tuple(left), tuple(right))] = value
        self.entries = store

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, k: int, entries: dict[EntryKey, GaussRational]) -> "SymbolTensor":
        """Wrap entries that are already canonical: sorted keys of length ``k``
        over letters ``0..n``, nonzero GaussRational values.  No check runs;
        the dict is taken over, not copied."""
        tensor = object.__new__(cls)
        tensor.n = n
        tensor.k = k
        tensor.entries = entries
        return tensor

    @classmethod
    def zero(cls, n: int, k: int) -> "SymbolTensor":
        return cls(n, k)

    @classmethod
    def constant(cls, n: int, value: ScalarLike) -> "SymbolTensor":
        return cls(n, 0, {((), ()): to_gauss(value)})

    @classmethod
    def basis_entry(cls, n: int, k: int, left: Index, right: Index, value: ScalarLike = 1) -> "SymbolTensor":
        return cls(n, k, {(tuple(sorted(left)), tuple(sorted(right))): to_gauss(value)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolTensor):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SymbolTensor(n={self.n}, k={self.k}, {len(self.entries)} entries)"

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
        out = dict(self.entries)
        for key, value in other.entries.items():
            current = out.get(key)
            if current is None:
                out[key] = value
            else:
                total = current + value
                if total:
                    out[key] = total
                else:
                    del out[key]
        return SymbolTensor._trusted(self.n, self.k, out)

    def __sub__(self, other: "SymbolTensor") -> "SymbolTensor":
        if not isinstance(other, SymbolTensor):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SymbolTensor":
        return SymbolTensor._trusted(self.n, self.k, {key: -value for key, value in self.entries.items()})

    def scale(self, factor: ScalarLike) -> "SymbolTensor":
        if isinstance(factor, GaussRational) and not factor.im:
            factor = factor.re
        if isinstance(factor, GaussRational):
            entries = {key: value * factor for key, value in self.entries.items()}
        elif factor:
            # a real factor scales both Fraction parts directly
            entries = {
                key: GaussRational(value.re * factor, value.im * factor)
                for key, value in self.entries.items()
            }
        else:
            entries = {}
        return SymbolTensor._trusted(self.n, self.k, entries)

    def conjugate_swap(self) -> "SymbolTensor":
        """Tensor of the complex-conjugated symbol (swap index groups, conjugate)."""
        return SymbolTensor(
            self.n,
            self.k,
            {(right, left): value.conjugate() for (left, right), value in self.entries.items()},
        )

    # -- polynomial view ----------------------------------------------

    def poly_items(self) -> Iterable[tuple[EntryKey, GaussRational]]:
        """Coefficients of sigma_tilde on sorted monomial representatives."""
        for (left, right), value in self.entries.items():
            yield (left, right), value * (multiplicity(left) * multiplicity(right))

    @classmethod
    def from_poly(cls, n: int, k: int, poly: Mapping[EntryKey, GaussRational]) -> "SymbolTensor":
        entries = {}
        for (left, right), coeff in poly.items():
            if coeff:
                entries[(left, right)] = coeff / (multiplicity(left) * multiplicity(right))
        return cls(n, k, entries)

    def to_zpoly(self) -> ZPoly:
        """Expand sigma_tilde into an explicit polynomial in z and z-bar."""
        out = ZPoly(self.n)
        width = self.n + 1
        for (left, right), coeff in self.poly_items():
            bar = [0] * width
            for a in left:
                bar[a] += 1
            hol = [0] * width
            for a in right:
                hol[a] += 1
            out.add_term((tuple(bar), tuple(hol)), coeff)
        return out

    @classmethod
    def from_zpoly(cls, n: int, k: int, poly: ZPoly) -> "SymbolTensor":
        entries: dict[EntryKey, GaussRational] = {}
        for (bar, hol), coeff in poly.terms.items():
            if sum(bar) != k or sum(hol) != k:
                raise ValueError(f"polynomial is not bihomogeneous of degree ({k}, {k})")
            left = tuple(a for a in range(n + 1) for _ in range(bar[a]))
            right = tuple(a for a in range(n + 1) for _ in range(hol[a]))
            entries[(left, right)] = coeff / (multiplicity(left) * multiplicity(right))
        return cls(n, k, entries)


def symmetrize(raw: Mapping[EntryKey, ScalarLike], n: int, k: int) -> SymbolTensor:
    """Average an arbitrarily-ordered coefficient map over both index groups."""
    accum: dict[EntryKey, GaussRational] = {}
    for (left, right), value in raw.items():
        value = to_gauss(value)
        if len(left) != k or len(right) != k:
            raise ValueError("raw entry with wrong index length")
        key = (tuple(sorted(left)), tuple(sorted(right)))
        accum[key] = accum.get(key, GAUSS_ZERO) + value
    entries = {
        key: value / (multiplicity(key[0]) * multiplicity(key[1]))
        for key, value in accum.items()
        if value
    }
    return SymbolTensor(n, k, entries)


def symbol_of_matrix(matrix: Sequence[Sequence[ScalarLike]]) -> SymbolTensor:
    """Degree-1 symbol tensor of an (n+1) x (n+1) matrix."""
    n = len(matrix) - 1
    entries: dict[EntryKey, GaussRational] = {}
    for i, row in enumerate(matrix):
        if len(row) != n + 1:
            raise ValueError("matrix must be square")
        for j, value in enumerate(row):
            value = to_gauss(value)
            if value:
                entries[((i,), (j,))] = value
    return SymbolTensor(n, 1, entries)


def identity_symbol(n: int, k: int) -> SymbolTensor:
    """Tensor with sigma_tilde = x**k; unit for the pointwise product and the
    identity operator under :func:`operator_product`."""
    entries = {
        (index, index): GaussRational(Fraction(1, multiplicity(index)))
        for index in sorted_tuples(n, k)
    }
    return SymbolTensor(n, k, entries)


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


def _poly_ints(tensor: SymbolTensor, weighted: bool = True) -> tuple[int, dict[EntryKey, list[int]]]:
    """Integer view of a tensor: the common denominator ``D`` of every entry
    part, and each cell times ``D`` as a list ``[re, im]`` of ints.

    A cell is the polynomial coefficient ``entry * mult(L) * mult(R)`` of
    sigma_tilde, or the bare entry when ``weighted`` is false.  Every list is
    fresh, so kernels may update the cells in place.
    """
    values = tensor.entries.values()
    d = lcm(*(v.re.denominator for v in values), *(v.im.denominator for v in values))
    cells = {}
    for (left, right), v in tensor.entries.items():
        w = d * multiplicity(left) * multiplicity(right) if weighted else d
        cells[(left, right)] = [
            v.re.numerator * (w // v.re.denominator),
            v.im.numerator * (w // v.im.denominator),
        ]
    return d, cells


def _from_poly_ints(n: int, k: int, d: int, cells: Mapping[EntryKey, Sequence[int]]) -> SymbolTensor:
    """Inverse of :func:`_poly_ints`: polynomial-coefficient cells over the
    common denominator ``d`` back to a tensor, one Fraction per part of each
    nonzero cell with denominator ``mult(L) * mult(R) * d``."""
    entries: dict[EntryKey, GaussRational] = {}
    for (left, right), (c_re, c_im) in cells.items():
        if c_re or c_im:
            denom = multiplicity(left) * multiplicity(right) * d
            entries[(left, right)] = GaussRational(Fraction(c_re, denom), Fraction(c_im, denom))
    return SymbolTensor._trusted(n, k, entries)


def _times_x(n: int, cells: Mapping[EntryKey, Sequence[int]]) -> dict[EntryKey, list[int]]:
    """Polynomial-coefficient cells of sigma_tilde multiplied by
    x = sum_a zbar_a z_a."""
    grown: dict[EntryKey, list[int]] = {}
    raised: dict[Index, list[Index]] = {}  # index -> index + (a,) for every letter a
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


def embed(tensor: SymbolTensor, times: int = 1) -> SymbolTensor:
    """Raise the degree by multiplying sigma_tilde with x**times (same symbol).

    An integer kernel: the polynomial coefficients are multiplied by x over
    one common denominator and normalised once at the end.
    """
    if times < 0:
        raise ValueError("embed requires times >= 0")
    if not times:
        return tensor
    d, cells = _poly_ints(tensor)
    for _ in range(times):
        cells = _times_x(tensor.n, cells)
    return _from_poly_ints(tensor.n, tensor.k + times, d, cells)


def reduce_degree(tensor: SymbolTensor) -> Optional[SymbolTensor]:
    """Divide sigma_tilde by x exactly, or return None when not divisible.

    Long division in the lex order zbar_0 > ... > zbar_n > z_0 > ... > z_n,
    which ranks a monomial zbar^L z^R higher the smaller its sorted pair
    ``(L, R)`` is, so x leads with zbar_0 z_0.  {x} is a Groebner basis, so
    the quotient is unique, and the result is None as soon as the leading
    monomial left lacks the letter 0 in either group.

    An integer kernel: x is monic in its lead monomial, so the division
    runs on the Gaussian-integer polynomial coefficients over the tensor's
    common denominator, and the quotient stays integral over it.
    """
    if tensor.k == 0:
        raise ValueError("cannot reduce a degree-0 symbol")
    d, remainder = _poly_ints(tensor)
    heap = list(remainder)
    heapify(heap)
    quotient: dict[EntryKey, list[int]] = {}
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
        # the a = 0 term of coeff * x is the monomial just taken; the others
        # rank below it, so each monomial enters the heap once
        for a in range(1, tensor.n + 1):
            key = (merge_indices(left, (a,)), merge_indices(right, (a,)))
            existing = remainder.get(key)
            if existing is None:
                remainder[key] = [-c_re, -c_im]
                heappush(heap, key)
            else:
                existing[0] -= c_re
                existing[1] -= c_im
    return _from_poly_ints(tensor.n, tensor.k - 1, d, quotient)


def reduce_to_min(tensor: SymbolTensor) -> SymbolTensor:
    """Repeatedly divide by x until the representation has minimal degree."""
    current = tensor
    while current.k > 0:
        lowered = reduce_degree(current)
        if lowered is None:
            return current
        current = lowered
    return current


def same_function(left: SymbolTensor, right: SymbolTensor) -> bool:
    """Equality as functions on CP^n (compare at a common embedded degree)."""
    if left.n != right.n:
        return False
    degree = max(left.k, right.k)
    return embed(left, degree - left.k) == embed(right, degree - right.k)


def _contract_into(
    accum: dict[EntryKey, list[int]],
    left_cells: Mapping[EntryKey, Sequence[int]],
    right_cells: Mapping[EntryKey, Sequence[int]],
    k: int,
    l: int,
    r: int,
    scale: int,
) -> None:
    """Add ``scale`` times the r-th contraction of two integer views into
    ``accum``.

    ``left_cells`` and ``right_cells`` are the bare entries of a degree-``k``
    and a degree-``l`` tensor as ``[re, im]`` ints (``_poly_ints`` with
    ``weighted=False``, possibly rescaled to a larger common denominator).
    ``accum`` collects polynomial-coefficient cells of degree ``k + l - r``
    in place: multiplicity weights, the combinatorial prefactor and
    ``scale`` are folded into the ints, so any number of contractions over
    the same denominators can add up in one dict and be normalised once
    with :func:`_from_poly_ints`.
    """
    prefactor = _falling(k, r) * _falling(l, r) * scale
    # Index the right factor by the contracted submultiset of its
    # antiholomorphic group.
    right_split: dict[Index, list[tuple[Index, Index, int, int]]] = {}
    for (pb, qb), (b_re, b_im) in right_cells.items():
        w_q = multiplicity(qb)
        for alpha, i2 in submultiset_splits(pb, r):
            w = multiplicity(i2) * w_q
            right_split.setdefault(alpha, []).append((i2, qb, b_re * w, b_im * w))
    for (ia, ja), (va_re, va_im) in left_cells.items():
        w_left = multiplicity(ia)
        for alpha, j2 in submultiset_splits(ja, r):
            matches = right_split.get(alpha)
            if not matches:
                continue
            w = w_left * multiplicity(j2) * multiplicity(alpha) * prefactor
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


def wick_contraction(left: SymbolTensor, right: SymbolTensor, r: int) -> SymbolTensor:
    """Contract ``r`` holomorphic indices of ``left`` against ``r``
    antiholomorphic indices of ``right``.

    This is the degree-(k + l - r) tensor of the r-th bidifferential operator
    of the star product: differentiate the first factor holomorphically and
    the second antiholomorphically, r times each, and contract the derivative
    directions.  On stored entries that amounts to an Einstein contraction
    followed by symmetrization, with the combinatorial prefactor
    ``k!/(k-r)! * l!/(l-r)!`` from choosing which factors to differentiate.

    A thin wrapper over the integer accumulator :func:`_contract_into`:
    each factor is brought over the lcm ``D`` of its entry-part denominators,
    every output cell adds up int products, and the cell becomes one
    Fraction per part, ``c / (mult(u) mult(v) D_left D_right)``, at the end.
    :func:`cpstar.star.star_elements` runs the same accumulator over all of
    its contractions at once.
    """
    if left.n != right.n:
        raise ValueError("contraction needs matching n")
    k, l = left.k, right.k
    if not 0 <= r <= min(k, l):
        raise ValueError(f"contraction order r={r} outside 0..min({k}, {l})")
    d_left, left_cells = _poly_ints(left, weighted=False)
    d_right, right_cells = _poly_ints(right, weighted=False)
    accum: dict[EntryKey, list[int]] = {}
    _contract_into(accum, left_cells, right_cells, k, l, r, 1)
    return _from_poly_ints(left.n, k + l - r, d_left * d_right, accum)


def wick_contraction_reference(left: SymbolTensor, right: SymbolTensor, r: int) -> SymbolTensor:
    """Oracle for :func:`wick_contraction` by literal differentiation.

    Expands both sigma_tilde polynomials, applies every r-fold derivative
    tuple explicitly, multiplies and sums.  Independent of the stored-entry
    combinatorics; intentionally slow and simple.
    """
    if left.n != right.n:
        raise ValueError("contraction needs matching n")
    k, l = left.k, right.k
    if not 0 <= r <= min(k, l):
        raise ValueError(f"contraction order r={r} outside 0..min({k}, {l})")
    n = left.n
    poly_left = left.to_zpoly()
    poly_right = right.to_zpoly()
    total = ZPoly(n)
    for directions in iter_product(range(n + 1), repeat=r):
        d_left = poly_left
        for i in directions:
            d_left = d_left.diff_z(i)
        if d_left.is_zero():
            continue
        d_right = poly_right
        for i in directions:
            d_right = d_right.diff_zbar(i)
        if d_right.is_zero():
            continue
        total = total + d_left * d_right
    return SymbolTensor.from_zpoly(n, k + l - r, total)


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
