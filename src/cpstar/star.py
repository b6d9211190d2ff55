"""The closed-form star product of Wick type on CP^n.

For symbols ``f`` of degree ``k`` and ``g`` of degree ``l`` the product is the
finite sum

    f * g = sum_{r=0}^{min(k,l)}  nu^r / r!
            * nu^(k+l-r) / (nu^(k) nu^(l))
            * C_r(f, g)

where ``C_r`` is the contraction operator of :func:`cpstar.symbols.wick_contraction`
and ``nu^(k)`` the nu-Pochhammer product.  Because the coefficients are
rational functions of the deformation parameter, products of plain symbols are
returned term by term (:class:`StarProductTerms`).  Since k + l - r >=
max(k, l), ``nu^(max(k,l))`` cancels from ``nu^(k+l-r)``, and each
coefficient reduces to

    nu^r / r! * prod_{max(k,l) <= j < k+l-r} (1 - j nu)
              / prod_{1 <= j < min(k,l)} (1 - j nu),

over ``nu^(min(k,l))`` alone.  So the poles of f * g lie in
{1/j : 1 <= j < min(k, l)}, and its power series in nu converges for
|nu| < 1/(min(k, l) - 1), for every nu when min(k, l) <= 1: the finite
radius behind the convergence result of Cahen, Gutt and Rawnsley (1990).

Clearing denominators leads to the filtered subalgebra whose level-``k``
elements are

    Phi(nu) = sum_{r=0}^{k} nu^{k-r} nu^(r) phi_r,   phi_r a degree-r symbol,

on which the product is polynomial in nu (:func:`star_elements`).

Both products are read off the Wick product on C^(n+1), of which the
closed formula is the reduction (Bordemann, Brischle, Emmrich and
Waldmann, Lett. Math. Phys. 36, 1996).  At hbar = 1 and on
F = sum_r phi_r and G = sum_s psi_s it is

    sum over multisets alpha of (1/alpha!) d_z^alpha F * dbar_z^alpha G,

and its part of degree r + s - t from a pair (phi_r, psi_s) is
C_t(phi_r, psi_s)/t!.  So :func:`star_elements` is that product graded by
degree, and :func:`star_symbols` reads every order t of a pair off one
product, as its degree k + l - t times t!.  Both run it as one call of the
kernel of :mod:`cpstar.symbols`, on integer weights
binom(J, alpha) P!/(P - alpha)! per pair of monomials zbar^I z^J and
zbar^P z^Q, over additive monomial codes: one digit of s bits per letter
the factors use and index group, so the output code of a term is the sum
of two codes.

Elements are kept in this component basis.  Every linear combination of
elements, ``+``, ``-``, scaling, raising the level
(:meth:`StarElement.relevel`), a nu-polynomial multiple in ``eval`` and the
reconstruction of an ideal factorisation, is one call of ``_combined``,
which raises each part with nu^(r+1) = (1 - r nu) nu^(r) and builds each
output degree once; finding the least level (:meth:`StarElement.minimized`)
inverts it one level at a time.  Expansion into a raw power series in nu
(:class:`RawNuSeries`) and the converse structure extraction
(:func:`extract_structure`) are the plain-series view of the same elements,
used for the ``series`` wire type and as an independent reference; every
sum of series is one call of ``_series``, one ``_linear`` per power of nu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .multiindex import _unranked
from .nupoly import NuPolynomial, NuRationalFunction, _linear_ints, _pochhammer_js, _union, _weight_ints
from .scalars import ScalarLike, to_gauss
from .symbols import (
    SymbolTensor,
    _add_scaled,
    _coefficient_ints,
    _linear,
    _times_x,
    _wick_sums,
    embed,
    pointwise_mul,
    reduce_degree,
    reduce_to_min,
    symbol_of_matrix,
    wick_contraction,
)

__all__ = [
    "RawNuSeries",
    "StarElement",
    "StarProductTerms",
    "StarTerm",
    "check_power_closed_form",
    "check_strong_invariance",
    "extract_structure",
    "pointwise_power",
    "star_commutator",
    "star_elements",
    "star_symbols",
]


class StarTerm:
    """One graded term of a symbol star product."""

    __slots__ = ("r", "coefficient", "tensor")

    def __init__(self, r: int, coefficient: NuRationalFunction, tensor: SymbolTensor) -> None:
        self.r = r
        self.coefficient = coefficient
        self.tensor = tensor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarTerm):
            return NotImplemented
        return (
            self.r == other.r
            and self.coefficient == other.coefficient
            and self.tensor == other.tensor
        )

    def __repr__(self) -> str:
        return f"StarTerm(r={self.r}, coeff={self.coefficient}, tensor={self.tensor!r})"


class StarProductTerms:
    """Star product of two plain symbols, one term per contraction order.

    Terms are kept separate because the scalar prefactors are rational
    functions of nu; :meth:`nrf_map` flattens everything to entry-wise
    rational functions at a common embedded degree for exact comparisons.
    """

    def __init__(self, n: int, k: int, l: int, terms: Sequence[StarTerm]) -> None:
        self.n = n
        self.k = k
        self.l = l
        self.terms = list(terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarProductTerms):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.l == other.l
            and self.terms == other.terms
        )

    def nrf_map(self, degree: Optional[int] = None) -> dict:
        """Entry-wise rational functions of nu at a common embedded degree
        ``degree >= k + l`` (default ``k + l``).

        One integer pass, reduced once per entry.  The entries lie over the
        union ``js`` of the terms' own reduced factors ``1 - j nu``.  For a
        product of :func:`star_symbols` that is ``nu^(min(k, l))``, since
        ``nu^(max(k, l))`` cancels from the ``nu^(k+l-t)`` of each
        coefficient ``nu^t/t! nu^(k+l-t)/(nu^(k) nu^(l))``: the poles lie
        in {1/j : 1 <= j < min(k, l)}, and the power series of every entry
        converges for |nu| < 1/(min(k, l) - 1).  Each coefficient's
        numerator over ``js`` is cleared to Gaussian integers over ``D_t``,
        and each term's cells over ``den_t`` are multiplied by x up to
        ``degree``, unnormalised.  Each entry sums the products of the two
        over the lcm ``D`` of every ``D_t den_t``, and
        ``NuRationalFunction._from_ints`` reduces the sum over ``D mult(I)
        mult(J)`` and ``js`` once.
        """
        n, top = self.n, self.k + self.l
        if degree is None:
            degree = top
        elif degree < top:
            raise ValueError(f"nrf_map needs a degree of at least k + l = {top}, got {degree}")
        js: tuple[int, ...] = ()
        for term in self.terms:
            own = term.coefficient.js
            if own != js:
                js = _union(js, own)
        parts = []
        for term in self.terms:
            tensor = term.tensor
            if tensor.cells and term.coefficient:
                if tensor.k > degree:
                    raise ValueError(f"nrf_map needs a degree of at least {tensor.k}, got {degree}")
                cells = tensor.cells
                for k in range(tensor.k, degree):
                    cells = _times_x(n, k, cells)
                den, nums = term.coefficient._numerator_ints(js)
                parts.append((den * tensor.den, nums, cells))
        den = lcm(*(d for d, _, _ in parts))
        width = max((len(nums) for _, nums, _ in parts), default=0)
        sums: dict = {}
        for d, nums, cells in parts:
            scale = den // d
            nums = [(m, re * scale, im * scale) for m, (re, im) in enumerate(nums) if re or im]
            for key, (c_re, c_im) in cells.items():
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [[0, 0] for _ in range(width)]
                for m, n_re, n_im in nums:
                    cell = acc[m]
                    cell[0] += n_re * c_re - n_im * c_im
                    cell[1] += n_re * c_im + n_im * c_re
        unranked = _unranked(n, degree)
        out = {}
        for key, acc in sums.items():
            left, right, weight = unranked[key]
            value = NuRationalFunction._from_ints(acc, den * weight, js)
            if value:
                out[left, right] = value
        return out

    def is_zero(self) -> bool:
        return all(term.tensor.is_zero() for term in self.terms)

    def __repr__(self) -> str:
        return f"StarProductTerms(n={self.n}, k={self.k}, l={self.l}, {len(self.terms)} terms)"


@lru_cache(maxsize=1 << 12)
def _star_coefficient(k: int, l: int, r: int) -> NuRationalFunction:
    """``nu^r / r! * nu^(k+l-r) / (nu^(k) nu^(l))``, with its denominator factored."""
    return NuRationalFunction._from_ints(*_weight_ints(k, l, r))


def star_symbols(f: SymbolTensor, g: SymbolTensor) -> StarProductTerms:
    """Star product of two plain symbols, term by contraction order.

    One call of the Wick kernel :func:`cpstar.symbols._wick_sums` gives
    every order r at once, as its output degree k + l - r, which is 1/r!
    times the r-th contraction."""
    if f.n != g.n:
        raise ValueError("star product needs matching n")
    n, k, l = f.n, f.k, g.k
    sums = _wick_sums(n, [(k, f.cells, 1)], [(l, g.cells, 1)])
    den = f.den * g.den
    terms = []
    for r in range(min(k, l) + 1):
        cells = sums.get(k + l - r, {})
        if r > 1:
            scale = factorial(r)
            cells = {key: (re * scale, im * scale) for key, (re, im) in cells.items()}
        terms.append(StarTerm(r, _star_coefficient(k, l, r), SymbolTensor._from_cells(n, k + l - r, den, cells)))
    return StarProductTerms(n, k, l, terms)


def star_commutator(f: SymbolTensor, g: SymbolTensor) -> StarProductTerms:
    """Termwise difference f * g - g * f (the scalar coefficients coincide)."""
    forward = star_symbols(f, g)
    backward = star_symbols(g, f)
    terms = [
        StarTerm(a.r, a.coefficient, a.tensor - b.tensor)
        for a, b in zip(forward.terms, backward.terms)
    ]
    return StarProductTerms(f.n, f.k, g.k, terms)


def check_strong_invariance(matrix: Sequence[Sequence[ScalarLike]], phi: SymbolTensor) -> bool:
    """Exact first-order form of the star commutator with a linear symbol.

    For any matrix ``A`` and symbol ``phi`` the commutator
    ``sigma(A) * phi - phi * sigma(A)`` must consist of a vanishing
    zeroth-order term and a first-order term with scalar coefficient exactly
    ``nu``; no higher orders exist.  This is the strong-invariance property of
    the star product under the unitary group action.
    """
    sigma = symbol_of_matrix(matrix)
    if sigma.n != phi.n:
        raise ValueError("matrix size does not match the symbol")
    commutator = star_commutator(sigma, phi)
    expected_first = wick_contraction(sigma, phi, 1) - wick_contraction(phi, sigma, 1)
    nu_coefficient = NuRationalFunction(NuPolynomial.nu_power(1))
    for term in commutator.terms:
        if term.r == 0:
            if not term.tensor.is_zero():
                return False
        elif term.r == 1:
            if term.coefficient != nu_coefficient or term.tensor != expected_first:
                return False
        else:  # impossible for a degree-1 factor, defensive
            if not term.tensor.is_zero():
                return False
    return True


def pointwise_power(tensor: SymbolTensor, power: int) -> SymbolTensor:
    """Pointwise power of a symbol (degree multiplies)."""
    if power < 0:
        raise ValueError("pointwise_power requires power >= 0")
    out = SymbolTensor.constant(tensor.n, 1)
    for _ in range(power):
        out = pointwise_mul(out, tensor)
    return out


def check_power_closed_form(
    matrix_a: Sequence[Sequence[ScalarLike]],
    matrix_b: Sequence[Sequence[ScalarLike]],
    k: int,
    l: int,
) -> bool:
    """Closed form of sigma(A)^k * sigma(B)^l, term by term.

    The r-th term of the star product of pointwise powers must equal

        nu^r / r! * k! l! / ((k-r)! (l-r)!) * nu^(k+l-r) / (nu^(k) nu^(l))
        * sigma(AB)^r sigma(A)^{k-r} sigma(B)^{l-r}.
    """
    sig_a = symbol_of_matrix(matrix_a)
    sig_b = symbol_of_matrix(matrix_b)
    if sig_a.n != sig_b.n:
        raise ValueError("matrices must have equal size")
    product_matrix = [
        [
            sum((to_gauss(matrix_a[i][m]) * to_gauss(matrix_b[m][j]) for m in range(sig_a.n + 1)), to_gauss(0))
            for j in range(sig_a.n + 1)
        ]
        for i in range(sig_a.n + 1)
    ]
    sig_ab = symbol_of_matrix(product_matrix)
    left = star_symbols(pointwise_power(sig_a, k), pointwise_power(sig_b, l))
    for term in left.terms:
        r = term.r
        if term.coefficient != _star_coefficient(k, l, r):
            return False
        combinatorial = Fraction(
            factorial(k) * factorial(l), factorial(k - r) * factorial(l - r)
        )
        expected_tensor = pointwise_mul(
            pointwise_power(sig_ab, r),
            pointwise_mul(pointwise_power(sig_a, k - r), pointwise_power(sig_b, l - r)),
        ).scale(combinatorial)
        if term.tensor != expected_tensor:
            return False
    return True


class RawNuSeries:
    """Plain power series (a polynomial) in nu with symbol-tensor coefficients,
    all stored at one common degree."""

    __slots__ = ("n", "degree", "powers")

    def __init__(self, n: int, degree: int, powers: Mapping[int, SymbolTensor] | None = None) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.n = n
        self.degree = degree
        self.powers: dict[int, SymbolTensor] = {}
        if powers:
            for power, tensor in powers.items():
                if tensor.is_zero():
                    continue
                if tensor.n != n or tensor.k != degree:
                    raise ValueError("series coefficient at wrong degree")
                if power < 0:
                    raise ValueError("negative nu power")
                self.powers[power] = tensor

    def is_zero(self) -> bool:
        return not self.powers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawNuSeries):
            return NotImplemented
        return self.n == other.n and self.degree == other.degree and self.powers == other.powers

    def __repr__(self) -> str:
        return f"RawNuSeries(n={self.n}, degree={self.degree}, powers={sorted(self.powers)})"

    def coefficient(self, power: int) -> SymbolTensor:
        return self.powers.get(power, SymbolTensor.zero(self.n, self.degree))

    def __add__(self, other: "RawNuSeries") -> "RawNuSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "RawNuSeries") -> "RawNuSeries":
        return self._plus(other, -1)

    def _plus(self, other: object, sign: int) -> "RawNuSeries":
        if not isinstance(other, RawNuSeries):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("series shapes differ")
        parts = [(p, t, 1) for p, t in self.powers.items()] + [(p, t, sign) for p, t in other.powers.items()]
        return _series(self.n, self.degree, parts)

    def scale(self, factor: ScalarLike) -> "RawNuSeries":
        return _series(self.n, self.degree, [(p, t, factor) for p, t in self.powers.items()])

    def embed_to(self, degree: int) -> "RawNuSeries":
        if degree < self.degree:
            raise ValueError("cannot lower the stored degree of a series")
        if degree == self.degree:
            return self
        return RawNuSeries(
            self.n, degree, {p: embed(t, degree - self.degree) for p, t in self.powers.items()}
        )

    def shift_down(self) -> "RawNuSeries":
        """Divide by nu; requires a vanishing constant coefficient."""
        if 0 in self.powers:
            raise ValueError("series is not divisible by nu")
        return RawNuSeries(self.n, self.degree, {p - 1: t for p, t in self.powers.items()})


def _series(n: int, degree: int, parts: Iterable[tuple[int, SymbolTensor, ScalarLike]]) -> RawNuSeries:
    """The series sum of ``c nu^p T`` over the ``parts`` ``(p, T, c)``, degree-``degree``
    tensors on CP^n: one :func:`cpstar.symbols._linear` call per power of nu."""
    grouped: dict[int, list] = {}
    for power, tensor, c in parts:
        grouped.setdefault(power, []).append((tensor, c))
    return RawNuSeries(n, degree, {power: _linear(n, degree, terms) for power, terms in grouped.items()})


def _relevel_weights(r: int, m: int) -> list[int]:
    """``h_{m-j}(r, r+1, ..., r+j)`` for j = 0..m, h_p the complete
    homogeneous symmetric polynomial of degree p; for r = 0 these are the
    Stirling numbers S(m, j) of the second kind."""
    h = [r**p for p in range(m + 1)]  # h_p(r)
    out = [h[m]]
    for j in range(1, m + 1):
        # h_p(..., r + j) = h_p(...) + (r + j) h_{p-1}(..., r + j)
        for p in range(1, m - j + 1):
            h[p] += (r + j) * h[p - 1]
        out.append(h[m - j])
    return out


def _combined(n: int, level: int, parts: Sequence[tuple["StarElement", ScalarLike]]) -> "StarElement":
    """The sum of ``c E`` over the ``parts`` ``(E, c)``, elements over CP^n
    of level at most ``level`` with coefficients ``c = (p + q i) / m`` (int,
    ``Fraction`` or ``GaussRational``), at ``level``.

    Raising a level by one turns phi_r into x phi_r at degree r + 1 plus
    r phi_r at degree r, as nu^(r+1) = (1 - r nu) nu^(r), so m steps send
    x^j phi_r to degree r + j with weight h_{m-j}(r, r+1, ..., r+j)
    (:func:`_relevel_weights`).  Every part's components add up ``p + q i``
    times their int cells over the lcm of their ``den m``, and each output
    degree is normalised once."""
    parts = [(element, _coefficient_ints(c)) for element, c in parts if c]
    den = lcm(*(tensor.den * m for element, (_, _, m) in parts for tensor in element.components.values()))
    sums: dict[int, dict] = {}
    for element, (p, q, m) in parts:
        raised = level - element.level
        for r, tensor in element.components.items():
            scale = den // (tensor.den * m)
            cells = tensor.cells
            for j, weight in enumerate(_relevel_weights(r, raised)):
                if j:
                    cells = _times_x(n, r + j - 1, cells)
                if weight:
                    _add_scaled(sums.setdefault(r + j, {}), cells, weight * scale * p, weight * scale * q)
    # StarElement drops the components whose entries all cancel
    return StarElement(
        n, level, {degree: SymbolTensor._from_cells(n, degree, den, cells) for degree, cells in sums.items()}
    )


class StarElement:
    """Element of the filtered subalgebra on which the star product closes.

    ``components[r]`` is the degree-r symbol tensor weighted by
    ``nu^{level-r} nu^(r)`` in the defining sum.  The level is part of the
    representation; :meth:`minimized` computes the canonical least level.
    """

    __slots__ = ("n", "level", "components")

    def __init__(self, n: int, level: int, components: Mapping[int, SymbolTensor] | None = None) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.n = n
        self.level = level
        self.components: dict[int, SymbolTensor] = {}
        if components:
            for r, tensor in components.items():
                if tensor.is_zero():
                    continue
                if not 0 <= r <= level:
                    raise ValueError(f"component index {r} outside 0..{level}")
                if tensor.n != n or tensor.k != r:
                    raise ValueError(f"component {r} must be a degree-{r} symbol over n={n}")
                self.components[r] = tensor

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "StarElement":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int) -> "StarElement":
        return cls(n, 0, {0: SymbolTensor.constant(n, 1)})

    @classmethod
    def lift(cls, tensor: SymbolTensor) -> "StarElement":
        """The symbol with its Pochhammer dressing cleared: level k, top only."""
        return cls(tensor.n, tensor.k, {tensor.k: tensor})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def component(self, r: int) -> SymbolTensor:
        return self.components.get(r, SymbolTensor.zero(self.n, r))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.level == other.level
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"StarElement(n={self.n}, level={self.level}, components={sorted(self.components)})"

    # -- linear structure ---------------------------------------------

    def scale(self, factor: ScalarLike) -> "StarElement":
        """Multiply by a coefficient at the same level: the one-part sum of :func:`_combined`."""
        return _combined(self.n, self.level, ((self, factor),))

    def nu_shift(self, j: int = 1) -> "StarElement":
        """Multiply by nu**j: same components, level raised by j."""
        if j < 0:
            raise ValueError("nu_shift requires j >= 0")
        return StarElement(self.n, self.level + j, dict(self.components))

    def relevel(self, new_level: int) -> "StarElement":
        """Rewrite at a higher level using nu^(r+1) = (1 - r nu) nu^(r):
        the one-part sum of :func:`_combined`."""
        if new_level < self.level:
            raise ValueError("relevel only raises the level")
        if new_level == self.level:
            return self
        return _combined(self.n, new_level, ((self, 1),))

    def __add__(self, other: "StarElement") -> "StarElement":
        return self._plus(other, 1)

    def __neg__(self) -> "StarElement":
        return _combined(self.n, self.level, ((self, -1),))

    def __sub__(self, other: "StarElement") -> "StarElement":
        return self._plus(other, -1)

    def _plus(self, other: object, sign: int) -> "StarElement":
        """``self + sign other`` at the higher of the two levels."""
        if not isinstance(other, StarElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("elements over different n")
        return _combined(self.n, max(self.level, other.level), ((self, 1), (other, sign)))

    # -- expansion and canonical form ---------------------------------

    def expand(self) -> RawNuSeries:
        """Raw nu-power series at the element's level, in one :func:`_series` sum."""
        parts = []
        for r, tensor in self.components.items():
            embedded = embed(tensor, self.level - r)
            parts += [(self.level - r + j, embedded, c) for j, c in enumerate(_linear_ints(_pochhammer_js(r)))]
        return _series(self.n, self.level, parts)

    def minimized(self) -> "StarElement":
        """Canonical representative with the least possible level.

        Inverts :meth:`relevel` one level at a time, from the top component
        down: level L - 1 represents the element exactly when component 0
        is empty and every ``psi_{r+1} - (r+1) phi_{r+1}`` is divisible by x,
        the quotient being ``phi_r``.  The representation at each level is
        unique, so the first failure marks the least level.
        """
        current = self
        while current.level > 0 and 0 not in current.components:
            lowered: dict[int, SymbolTensor] = {}
            above = SymbolTensor.zero(self.n, current.level)
            for r in range(current.level - 1, -1, -1):
                phi = reduce_degree(_linear(self.n, r + 1, ((current.component(r + 1), 1), (above, -r - 1))))
                if phi is None:
                    return current
                if not phi.is_zero():
                    lowered[r] = phi
                above = phi
            current = StarElement(self.n, current.level - 1, lowered)
        return current


def star_elements(left: StarElement, right: StarElement) -> StarElement:
    """Star product inside the filtered subalgebra: polynomial in nu.

    The product of levels k and l lands at level k + l with components

        comp[r + s - t] += 1/t! * C_t(phi_r, psi_s)

    summed over component degrees r, s and contraction orders t.  The result
    is returned at level k + l; call :meth:`StarElement.minimized` for the
    canonical representative.

    Summed over t this is the Wick product at hbar = 1 of F = sum_r phi_r
    and G = sum_s psi_s, graded by degree, so it is one call of the kernel
    :func:`cpstar.symbols._wick_sums`: the left components are brought over
    the lcm ``D_L`` of their denominators and the right ones over ``D_R``,
    and each output tensor is normalised once over ``D_L D_R``.
    """
    if left.n != right.n:
        raise ValueError("star product needs matching n")
    n = left.n
    level = left.level + right.level
    if not (left.components and right.components):
        return StarElement(n, level)
    d_left = lcm(*(phi.den for phi in left.components.values()))
    d_right = lcm(*(psi.den for psi in right.components.values()))
    sums = _wick_sums(
        n,
        [(r, phi.cells, d_left // phi.den) for r, phi in left.components.items()],
        [(s, psi.cells, d_right // psi.den) for s, psi in right.components.items()],
    )
    d = d_left * d_right
    # StarElement drops the components whose entries all cancel
    return StarElement(
        n, level, {degree: SymbolTensor._from_cells(n, degree, d, cells) for degree, cells in sums.items()}
    )


def extract_structure(series: RawNuSeries, level: int) -> Optional[StarElement]:
    """Recover filtered components from a raw nu-series, or None.

    Peels the requested level downward: the constant nu-coefficient must be a
    symbol of degree <= m (checked by exact division by x), the recognized
    component is subtracted with its Pochhammer weight, and the remainder must
    be divisible by nu.  A zero series yields the zero element.  Failure at
    any stage means the series does not lie in the level's filtered space.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    degree = max(series.degree, level)
    current = series.embed_to(degree)
    components: dict[int, SymbolTensor] = {}
    for m in range(level, -1, -1):
        constant = current.coefficient(0)
        minimal = reduce_to_min(constant)
        if minimal.k > m:
            return None
        component = embed(minimal, m - minimal.k)
        if not component.is_zero():
            components[m] = component
            embedded = embed(component, degree - m)
            parts = [(p, t, 1) for p, t in current.powers.items()]
            parts += [(j, embedded, -c) for j, c in enumerate(_linear_ints(_pochhammer_js(m)))]
            current = _series(series.n, degree, parts)
        if m == 0:
            if not current.is_zero():
                return None
        else:
            if 0 in current.powers:
                return None  # cannot happen; guards exact subtraction
            current = current.shift_down()
    if not components:
        return StarElement.zero(series.n)
    return StarElement(series.n, level, components)
