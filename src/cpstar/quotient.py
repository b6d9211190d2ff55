"""Substitution of numeric values for nu, ideals, and matrix-algebra quotients.

Evaluating a filtered element at an exact rational ``alpha != 0`` is an
algebra map onto functions.  Its kernel — the substitution ideal — behaves
very differently depending on ``alpha``:

* generic ``alpha``: every member factors as ``(nu - alpha)`` times an element
  one level down;
* ``alpha = 1/K``: the Pochhammer weights ``nu^(r)`` with ``r > K`` vanish at
  ``1/K``, so members split into an automatic head (components above K) plus a
  ``(nu - 1/K)`` cofactor.  The quotient is then the full matrix algebra of
  operators on degree-K holomorphic polynomials, of dimension C(n+K, K)^2,
  and the induced representation of u(n+1) on it is irreducible.

Everything works on the components ``phi_r`` of the element, weighted by
``nu^{level-r} nu^(r)``: substitution is one weighted sum of embedded
components, and both factorization branches solve ``tail = (nu - alpha) *
cofactor`` by a forward recurrence on the components, so every result can be
re-multiplied and compared exactly.

The weighted sum behind :func:`substitute` and :func:`quotient_map` runs in
Horner order, from the lowest component up: ``total = x * total + w_r *
phi_r``.  At ``alpha = p/q`` and level ``L`` every weight is an integer over
``q^L``, ``w_r = P_r p^(L-r) q^min(r,1)``, where ``P_r`` is the product of
``q - j p`` over the factors ``1 - j nu`` of ``nu^(r)``.  Each component is
scaled at its own degree, and the whole sum is taken on the components'
Gaussian-integer cells over one common denominator and normalised once.

:func:`star_at`, the numeric product of two plain symbols of degrees k and
l, evaluates the reduced closed form of their product entry by entry.  Its
t-th coefficient nu^t/t! nu^(k+l-t)/(nu^(k) nu^(l)) reduces to a
denominator of prod_{1 <= j < min(k, l)} (1 - j nu), so the product is
defined off the pole set {1/j : 1 <= j < min(k, l)}, whatever degree f and
g are written at; the entry sums can cancel more of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .linalg import matrix_rank
from .multiindex import sorted_tuples
from .nupoly import _pochhammer_js
from .scalars import GAUSS_I, GaussRational
from .star import StarElement, _combined, star_symbols
from .symbols import (
    SymbolTensor,
    _add_scaled,
    _linear,
    _times_x,
    embed,
    identity_symbol,
    operator_product,
    reduce_to_min,
    symbol_of_matrix,
    wick_contraction,
)

__all__ = [
    "IdealFactorization",
    "NotInIdealError",
    "QuotientOperator",
    "StarUndefinedError",
    "check_irreducible",
    "ideal_factorize",
    "quotient_dimension",
    "quotient_map",
    "representative_element",
    "star_at",
    "substitute",
    "unitary_generators",
]


class NotInIdealError(ValueError):
    """Raised when a factorization is requested for a non-member."""


class StarUndefinedError(ZeroDivisionError):
    """Raised when a numeric star product is asked for at a pole of its
    reduced closed form, a point 1/j with 1 <= j < min(k, l)."""


def _alpha(value: Fraction | int | str) -> Fraction:
    """A substitution point as a ``Fraction``, parsed once; it must be nonzero."""
    alpha = value if isinstance(value, Fraction) else Fraction(value)
    if not alpha:
        raise ValueError("substitution point must be nonzero")
    return alpha


def _pochhammer_ints(r: int, p: int, q: int) -> int:
    """``q^max(r-1, 0) nu^(r)(p/q)``: the product of ``q - j p`` over the
    factors ``1 - j nu`` of ``nu^(r)``."""
    out = 1
    for j in _pochhammer_js(r):
        out *= q - j * p
    return out


def _weighted_sum(element: StarElement, alpha: Fraction, degree: int | None = None) -> SymbolTensor:
    """The element at nu = alpha: sum_r nu^(r)(alpha) alpha^{level-r} phi_r.

    With ``alpha = p/q`` the weight of ``phi_r`` is the int ``P_r p^(L-r)
    q^min(r,1)`` over ``q^L``, ``L`` the level.  The sum is taken at
    ``degree``; by default that is the highest component whose weight is
    nonzero.  It runs in Horner order from the lowest component up, ``total
    = x * total + w_r * phi_r``, so each component is scaled at its own
    degree and a missing component costs one step of multiplication by x.
    All of it is on the components' cells over ``q^L`` times the lcm of
    their denominators, normalised once at the end.
    """
    p, q, level = alpha.numerator, alpha.denominator, element.level
    weights = {}
    for r in element.components:
        weight = _pochhammer_ints(r, p, q) * p ** (level - r) * q ** min(r, 1)
        if weight:
            weights[r] = weight
    top = max(weights, default=0)
    if degree is None:
        degree = top
    elif degree < top:
        raise ValueError(f"weighted component {top} lies above degree {degree}")
    d = lcm(*(element.components[r].den for r in weights))
    total: dict = {}
    for r in range(min(weights, default=degree), degree + 1):
        if total:
            total = _times_x(element.n, r - 1, total)
        weight = weights.get(r)
        if weight is None:
            continue
        tensor = element.components[r]
        _add_scaled(total, tensor.cells, weight * (d // tensor.den))
    return SymbolTensor._from_cells(element.n, degree, d * q**level, total)


def substitute(element: StarElement, alpha: Fraction | int | str) -> SymbolTensor:
    """Evaluate a filtered element at nu = alpha, reduced to minimal degree."""
    return reduce_to_min(_weighted_sum(element, _alpha(alpha)))


@dataclass(frozen=True)
class IdealFactorization:
    """Constructive witness that an element lies in a substitution ideal.

    ``head`` collects the components whose Pochhammer weight vanishes at the
    substitution point (nonempty only for alpha = 1/K below the level), and
    ``cofactor`` is the element one level down with

        element = head + (nu - alpha) * cofactor.
    """

    alpha: Fraction
    head: StarElement
    cofactor: StarElement

    def reconstruction(self) -> StarElement:
        if self.cofactor.is_zero():
            return self.head
        level = max(self.head.level, self.cofactor.level + 1)
        parts = ((self.head, 1), (self.cofactor.nu_shift(1), 1), (self.cofactor, -self.alpha))
        return _combined(self.head.n, level, parts)


def ideal_factorize(element: StarElement, alpha: Fraction | int | str) -> IdealFactorization:
    """Factor an ideal member, with a head when alpha = 1/K; raises NotInIdealError otherwise."""
    alpha = _alpha(alpha)
    p, q = alpha.numerator, alpha.denominator
    n, level = element.n, element.level
    if element.is_zero():
        # keep the level so the reconstruction reproduces the input exactly
        return IdealFactorization(alpha, StarElement(n, level), StarElement(n, max(level - 1, 0)))
    # the weights nu^(r) with r > K vanish at 1/K: those components form the head
    top = q if p == 1 and level > q else level
    head = StarElement(n, level, {r: t for r, t in element.components.items() if r > top})
    # tail = (nu - alpha) * cofactor reads t_r = (1 - alpha r) c_r - alpha embed(c_{r-1})
    # on components; solve upward, c_r = s t_r + alpha s embed(c_{r-1}) with
    # s = q/(q - r p) as one sum, and c_r = 0 from r = top on.  What is left
    # at component top is the tail's value at alpha up to the nonzero factor
    # nu^(top)(alpha) alpha^{level-top}, so it vanishes exactly for members.
    cofactor: dict[int, SymbolTensor] = {}
    below = SymbolTensor.zero(n, 0)  # embed(c_{r-1})
    for r in range(top):
        s = Fraction(q, q - r * p)
        c_r = _linear(n, r, ((element.component(r), s), (below, alpha * s)))
        if c_r:
            cofactor[r] = c_r
        below = embed(c_r)
    if _linear(n, top, ((element.component(top), 1), (below, alpha))):
        raise NotInIdealError(f"element does not vanish at nu = {alpha}")
    if not cofactor:
        return IdealFactorization(alpha, head, StarElement.zero(n))
    return IdealFactorization(alpha, head, StarElement(n, level - 1, cofactor))


def star_at(f: SymbolTensor, g: SymbolTensor, alpha: Fraction | int | str) -> SymbolTensor:
    """Numeric star product of plain symbols at nu = alpha, reduced to
    minimal degree.

    Each entry of the reduced closed form, the ``nrf_map`` of
    :func:`cpstar.star.star_symbols`, is evaluated at alpha.  The poles lie
    in {1/j : 1 <= j < min(k, l)}; at a pole of an entry this raises
    :class:`StarUndefinedError`.
    """
    if f.n != g.n:
        raise ValueError("star product needs matching n")
    alpha = _alpha(alpha)
    entries = {}
    for key, value in star_symbols(f, g).nrf_map().items():
        try:
            entries[key] = value.evaluate(alpha)
        except ZeroDivisionError:
            raise StarUndefinedError(f"star product undefined at nu = {alpha} for degrees ({f.k}, {g.k})") from None
    return reduce_to_min(SymbolTensor(f.n, f.k + g.k, entries))


class QuotientOperator:
    """Image of a filtered element in the matrix-algebra quotient at nu = 1/K.

    Wraps the degree-K symbol tensor viewed as an operator on the space of
    degree-K holomorphic polynomials.
    """

    __slots__ = ("K", "tensor")

    def __init__(self, K: int, tensor: SymbolTensor) -> None:
        if K < 1:
            raise ValueError("K must be a positive integer")
        if tensor.k != K:
            raise ValueError("operator tensor must have degree K")
        self.K = K
        self.tensor = tensor

    @property
    def n(self) -> int:
        return self.tensor.n

    def compose(self, other: "QuotientOperator") -> "QuotientOperator":
        """The operator product: the order-K Wick contraction over (K!)^2."""
        if self.K != other.K or self.n != other.n:
            raise ValueError("operators from different quotients")
        product = wick_contraction(self.tensor, other.tensor, self.K)
        return QuotientOperator(self.K, product.scale(Fraction(1, factorial(self.K) ** 2)))

    def is_identity(self) -> bool:
        return self.tensor == identity_symbol(self.n, self.K)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientOperator):
            return NotImplemented
        return self.K == other.K and self.tensor == other.tensor

    def __repr__(self) -> str:
        return f"QuotientOperator(K={self.K}, {self.tensor!r})"


def quotient_map(element: StarElement, K: int) -> QuotientOperator:
    """Project a filtered element onto the matrix algebra at nu = 1/K.

    Substitution at 1/K kills every component above K, so the value is the
    sum of the remaining components embedded at degree exactly K: the
    operator representing the class of the element.  The map is an algebra
    homomorphism onto operators with the Einstein composition product.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    return QuotientOperator(K, _weighted_sum(element, Fraction(1, K), K))


def representative_element(operator: QuotientOperator) -> StarElement:
    """Section of :func:`quotient_map`: a level-K element mapping to the operator."""
    K = operator.K
    tensor = operator.tensor.scale(Fraction(K ** (K - 1), _pochhammer_ints(K, 1, K)))  # 1 / nu^(K)(1/K)
    return StarElement(operator.n, K, {K: tensor})


def quotient_dimension(n: int, K: int) -> int:
    """Dimension C(n+K, K)**2 of the quotient matrix algebra."""
    return comb(n + K, K) ** 2


def unitary_generators(n: int) -> list[list[list[GaussRational]]]:
    """Basis of the antihermitean (n+1) x (n+1) matrices (the Lie algebra
    of the unitary group acting on CP^n)."""
    size = n + 1
    zero = GaussRational(0)
    out: list[list[list[GaussRational]]] = []

    def blank() -> list[list[GaussRational]]:
        return [[zero for _ in range(size)] for _ in range(size)]

    for a in range(size):
        m = blank()
        m[a][a] = GAUSS_I
        out.append(m)
    for a in range(size):
        for b in range(a + 1, size):
            m = blank()
            m[a][b] = GaussRational(1)
            m[b][a] = GaussRational(-1)
            out.append(m)
            m = blank()
            m[a][b] = GAUSS_I
            m[b][a] = GAUSS_I
            out.append(m)
    return out


def check_irreducible(n: int, K: int) -> bool:
    """Commutant test for the quotient representation of u(n+1).

    Embeds each generator's symbol as an operator on degree-K polynomials and
    writes, exactly, the linear conditions for a tensor to commute with all
    of them.  The identity meets them, so the representation is irreducible
    iff their rank is one less than the number of unknowns: only scalar
    multiples of the identity remain.
    """
    pairs = [(i, j) for i in sorted_tuples(n, K) for j in sorted_tuples(n, K)]
    images = [embed(symbol_of_matrix(g), K - 1) for g in unitary_generators(n)]
    rows: list[list[GaussRational]] = []
    zero = GaussRational(0)
    for image in images:
        columns: list[dict[tuple, GaussRational]] = []
        for left, right in pairs:
            basis = SymbolTensor.basis_entry(n, K, left, right)
            commuted = operator_product(image, basis) - operator_product(basis, image)
            columns.append(commuted.entries)
        for out_pair in pairs:
            row = [column.get(out_pair, zero) for column in columns]
            if any(row):
                rows.append(row)
    identity = identity_symbol(n, K).entries
    on_identity = [(p, identity[pair]) for p, pair in enumerate(pairs) if pair in identity]
    if any(sum((row[p] * value for p, value in on_identity), zero) for row in rows):
        return False
    return matrix_rank(rows) == len(pairs) - 1
