"""The nilpotent-exponential engine that ``models.flat.wick_product_flat``
replaced, kept as its oracle.

For a pair of terms ``P e_(a, b)`` and ``Q e_(a', b')`` each coordinate i
contributes the commuting operator

    a_i dbar_i(Q) + b'_i d_i(P) + d_i(P) dbar_i(Q)

whose exponential terminates because every application lowers the degree
of P or Q; each application carries one factor of lam.  The engine expands
that exponential one coordinate at a time, on the exponent vectors
themselves, and shares no code with the literal Wick product.

``exponential`` builds the pure exponentials the flat tests multiply.
"""

from fractions import Fraction

from cpstar.models.flat import ExpPolyFunction
from cpstar.nupoly import NU_ZERO, NuPolynomial
from cpstar.scalars import GAUSS_ZERO, GaussRational, to_gauss

Exponents = tuple[int, ...]
PairKey = tuple[Exponents, Exponents, Exponents, Exponents]


def exponential(coords: int, a, b, coeff: object = 1) -> ExpPolyFunction:
    """``coeff e_(a, b)`` on flat ``coords``-space, for frequency vectors
    ``a`` and ``b`` of numbers; the constructor checks their lengths."""
    zero = (0,) * coords
    key = (zero, zero, tuple(map(to_gauss, a)), tuple(map(to_gauss, b)), GAUSS_ZERO)
    return ExpPolyFunction(coords, {key: coeff})


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


def nilpotent_flat_product(left: ExpPolyFunction, right: ExpPolyFunction) -> ExpPolyFunction:
    """The Wick product of the replaced engine: the scalar part of the
    contraction exponential goes into the slope; the nilpotent part is
    expanded until it kills both monomials."""
    left._compatible(right)
    coords = left.coords
    result = []
    for (pz, pzb, a, b, s), cl in left.coeffs.items():
        for (qz, qzb, a2, b2, s2), cr in right.coeffs.items():
            slope = s + s2 + sum((u * v for u, v in zip(a, b2)), GAUSS_ZERO)
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
