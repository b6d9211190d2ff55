"""Wick product on flat complex space for exponential-polynomial functions.

The translation-representative functions on complex d-space are spanned by
products of a monomial in z and zbar with an exponential

    e_(a, b) : z |-> exp(a . z + b . zbar)

for complex vectors a, b.  The Wick product of two pure exponentials picks
up the scalar factor ``exp(lam a . b')`` and adds the frequency vectors.
With polynomial prefactors, d_z acts on ``P e_(a, b)`` as ``d + a`` and
dbar_z on ``Q e_(a', b')`` as ``dbar + b'``, so the product is

    exp(lam a . b') e_(a + a', b + b') (P(z + lam b', zbar) * Q(z, zbar + lam a))

with ``*`` the literal Wick product of polynomials,
:func:`cpstar.models.radial.wick_product_literal`.  Elements therefore stay
inside the class, with coefficients that are polynomials in lam times a
formal factor ``exp(lam . slope)`` recorded through the rational slope in
each term key.  An :class:`ExpPolyFunction` is a combination of such terms
(:mod:`._combination`).
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from ..nupoly import NuPolynomial
from ..scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational
from ..zpoly import ZPoly
from ._combination import Combination
from .radial import _as_lambda_poly, wick_product_literal

__all__ = ["ExpPolyFunction", "wick_product_flat"]

Exponents = tuple[int, ...]
Frequencies = tuple[GaussRational, ...]
TermKey = tuple[Exponents, Exponents, Frequencies, Frequencies, GaussRational]


def _dot(left: Frequencies, right: Frequencies) -> GaussRational:
    total = GAUSS_ZERO
    for u, v in zip(left, right):
        total = total + u * v
    return total


class ExpPolyFunction(Combination):
    """Finite sum of monomial-times-exponential terms on flat d-space.

    Terms are keyed by (z exponents, zbar exponents, a, b, slope) and carry
    a lam-polynomial coefficient; the slope records an ``exp(lam . slope)``
    factor produced by products of exponentials.
    """

    __slots__ = ("coords", "coeffs")
    _mismatch = "coordinate count mismatch"

    def __init__(self, coords: int, coeffs: Mapping[TermKey, object] | None = None) -> None:
        if coords < 1:
            raise ValueError("need at least one complex coordinate")
        pairs = []
        for key, value in (coeffs or {}).items():
            z_exps, zbar_exps, a, b, slope = key
            if len(z_exps) != coords or len(zbar_exps) != coords:
                raise ValueError("monomial exponent vectors must match coords")
            if len(a) != coords or len(b) != coords:
                raise ValueError("frequency vectors must match coords")
            pairs.append((key, _as_lambda_poly(value)))
        self._assign((coords,), pairs)

    def _key(self) -> tuple[int]:
        return (self.coords,)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, coords: int) -> "ExpPolyFunction":
        return cls(coords)

    @classmethod
    def one(cls, coords: int) -> "ExpPolyFunction":
        return cls.monomial(coords, (0,) * coords, (0,) * coords)

    @classmethod
    def monomial(
        cls,
        coords: int,
        z_exps: Exponents,
        zbar_exps: Exponents,
        coeff: object = 1,
    ) -> "ExpPolyFunction":
        zero_freq = (GAUSS_ZERO,) * coords
        key = (tuple(z_exps), tuple(zbar_exps), zero_freq, zero_freq, GAUSS_ZERO)
        return cls(coords, {key: _as_lambda_poly(coeff)})

    # -- ring operations -----------------------------------------------

    def __neg__(self) -> "ExpPolyFunction":
        return self._built(self._key(), ((k, -p) for k, p in self.coeffs.items()))

    def scale(self, factor: object) -> "ExpPolyFunction":
        poly = _as_lambda_poly(factor)
        return self._built(self._key(), ((k, p * poly) for k, p in self.coeffs.items()))

    def __repr__(self) -> str:
        return f"ExpPolyFunction(coords={self.coords}, terms={len(self.coeffs)})"


def _translated(exps: Exponents, shift: Frequencies) -> dict[Exponents, NuPolynomial]:
    """The monomial with exponents ``exps``, each variable v_i moved to
    ``v_i + lam shift_i`` and expanded binomially: a lam-monomial per
    exponent vector."""
    terms = [((), GAUSS_ONE, 0)]
    for e, c in zip(exps, shift):
        powers = [GAUSS_ONE]
        if c:
            for _ in range(e):
                powers.append(powers[-1] * c)
        terms = [
            (kept + (e - m,), value * powers[m] * comb(e, m), t + m)
            for kept, value, t in terms
            for m in range(len(powers))
        ]
    return {kept: NuPolynomial.nu_power(t, value) for kept, value, t in terms}


def wick_product_flat(left: ExpPolyFunction, right: ExpPolyFunction) -> ExpPolyFunction:
    """Wick product of two exponential-polynomial functions, exactly.

    Bilinear over terms.  For a pair of terms, the scalar part of the
    contraction goes into the slope, and the monomials, translated by lam
    times the other term's frequency, take the literal Wick product.
    """
    left._compatible(right)
    n = left.coords - 1
    result: list[tuple[TermKey, NuPolynomial]] = []
    for (pz, pzb, a, b, s), cl in left.coeffs.items():
        for (qz, qzb, a2, b2, s2), cr in right.coeffs.items():
            p = ZPoly(n, {(pzb, z): lam for z, lam in _translated(pz, b2).items()})
            q = ZPoly(n, {(zbar, qz): lam for zbar, lam in _translated(qzb, a).items()})
            frequencies = (
                tuple(u + v for u, v in zip(a, a2)),
                tuple(u + v for u, v in zip(b, b2)),
                s + s2 + _dot(a, b2),
            )
            coeff = cl * cr
            product = wick_product_literal(p, q)
            result.extend(((z, zbar) + frequencies, poly * coeff) for (zbar, z), poly in product.terms.items())
    return left._built(left._key(), result)
