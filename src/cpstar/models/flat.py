"""Wick product on flat complex space for exponential-polynomial functions.

The translation-representative functions on complex d-space are spanned by
products of a monomial in z and zbar with an exponential

    e_(a, b) : z |-> exp(a . z + b . zbar)

for complex vectors a, b.  The Wick product of two pure exponentials picks
up the scalar factor ``exp(lam a . b')`` and adds the frequency vectors;
with polynomial prefactors P and Q, each contraction index i contributes
the commuting operator

    a_i dbar_i(Q) + b'_i d_i(P) + d_i(P) dbar_i(Q)

whose exponential terminates because every application lowers the degree
of P or Q.  Elements therefore stay inside the class, with coefficients
that are polynomials in lam times a formal factor ``exp(lam . slope)``
recorded through the rational slope in each term key.  An
:class:`ExpPolyFunction` is a combination of such terms (:mod:`._combination`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..nupoly import NU_ZERO, NuPolynomial
from ..scalars import GAUSS_ZERO, GaussRational, to_gauss
from ._combination import Combination

__all__ = ["ExpPolyFunction", "wick_product_flat"]

Exponents = tuple[int, ...]
Frequencies = tuple[GaussRational, ...]
TermKey = tuple[Exponents, Exponents, Frequencies, Frequencies, GaussRational]


def _as_lambda_poly(value) -> NuPolynomial:
    if isinstance(value, NuPolynomial):
        return value
    return NuPolynomial.constant(value)


def _freq_vector(values, coords: int) -> Frequencies:
    out = tuple(to_gauss(v) for v in values)
    if len(out) != coords:
        raise ValueError(f"frequency vector must have length {coords}")
    return out


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

    @classmethod
    def exponential(cls, coords: int, a, b, coeff: object = 1) -> "ExpPolyFunction":
        key = (
            (0,) * coords,
            (0,) * coords,
            _freq_vector(a, coords),
            _freq_vector(b, coords),
            GAUSS_ZERO,
        )
        return cls(coords, {key: _as_lambda_poly(coeff)})

    # -- ring operations -----------------------------------------------

    def __neg__(self) -> "ExpPolyFunction":
        return self._built(self._key(), ((k, -p) for k, p in self.coeffs.items()))

    def scale(self, factor: object) -> "ExpPolyFunction":
        poly = _as_lambda_poly(factor)
        return self._built(self._key(), ((k, p * poly) for k, p in self.coeffs.items()))

    def __repr__(self) -> str:
        return f"ExpPolyFunction(coords={self.coords}, terms={len(self.coeffs)})"


PairKey = tuple[Exponents, Exponents, Exponents, Exponents]


def _apply_contraction(
    state: dict[PairKey, NuPolynomial],
    i: int,
    a_i: GaussRational,
    bp_i: GaussRational,
) -> dict[PairKey, NuPolynomial]:
    """One application of the i-th contraction operator to a pair state."""
    out: dict[PairKey, NuPolynomial] = {}

    def bump(key: PairKey, poly: NuPolynomial) -> None:
        if poly:
            out[key] = out.get(key, NU_ZERO) + poly

    for (pz, pzb, qz, qzb), poly in state.items():
        if a_i and qzb[i] > 0:
            lowered = qzb[:i] + (qzb[i] - 1,) + qzb[i + 1 :]
            bump((pz, pzb, qz, lowered), poly * (a_i * qzb[i]))
        if bp_i and pz[i] > 0:
            lowered = pz[:i] + (pz[i] - 1,) + pz[i + 1 :]
            bump((lowered, pzb, qz, qzb), poly * (bp_i * pz[i]))
        if pz[i] > 0 and qzb[i] > 0:
            pl = pz[:i] + (pz[i] - 1,) + pz[i + 1 :]
            ql = qzb[:i] + (qzb[i] - 1,) + qzb[i + 1 :]
            bump((pl, pzb, qz, ql), poly * (pz[i] * qzb[i]))
    return out


def wick_product_flat(left: ExpPolyFunction, right: ExpPolyFunction) -> ExpPolyFunction:
    """Wick product of two exponential-polynomial functions, exactly.

    Bilinear over terms.  For a pair of terms, the scalar part of the
    contraction exponential goes into the slope; the nilpotent part is
    expanded until it kills both monomials, each application carrying one
    factor of lam.
    """
    left._compatible(right)
    coords = left.coords
    result: list[tuple[TermKey, NuPolynomial]] = []
    for (pz, pzb, a, b, s), cl in left.coeffs.items():
        for (qz, qzb, a2, b2, s2), cr in right.coeffs.items():
            slope = s + s2 + _dot(a, b2)
            a_new = tuple(u + v for u, v in zip(a, a2))
            b_new = tuple(u + v for u, v in zip(b, b2))
            state: dict[PairKey, NuPolynomial] = {(pz, pzb, qz, qzb): cl * cr}
            for i in range(coords):
                total = dict(state)
                current = state
                j = 0
                while current:
                    j += 1
                    current = {
                        key: poly.shift(1) * Fraction(1, j)
                        for key, poly in _apply_contraction(current, i, a[i], b2[i]).items()
                    }
                    for key, poly in current.items():
                        total[key] = total.get(key, NU_ZERO) + poly
                state = {k: p for k, p in total.items() if p}
            for (rz, rzb, tz, tzb), poly in state.items():
                mono_z = tuple(u + v for u, v in zip(rz, tz))
                mono_zbar = tuple(u + v for u, v in zip(rzb, tzb))
                result.append(((mono_z, mono_zbar, a_new, b_new, slope), poly))
    return left._built(left._key(), result)

