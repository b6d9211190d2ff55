"""Symbol algebra on the Poincare disk.

The basis functions are indexed by pairs (p, q) of nonnegative integers,
standing for ``v**p (vbar / (1 - |v|^2))**q`` on the unit disk.  Their
star product closes on the basis with the weights of the CP^n product
(:func:`cpstar.star._star_coefficient`) at negated parameter,

    f_{p,q} * f_{r,s} = sum over m from 0 to min(q, r) of
        nu^m / m!
        * poch(q+s-m at -nu) / (poch(q at -nu) poch(s at -nu))
        * q!/(q-m)! * r!/(r-m)!
        * f_{p+r-m, q+s-m},

where ``poch(k at -nu)`` is the nu-Pochhammer product with nu replaced by
-nu: the CP^n weight at ``(k, l, t) = (q, s, m)`` and ``-nu``, times an
integer, built by the same ``nupoly._weight_ints``.  Its denominators are
products of ``1 + j nu``.  :func:`disk_product` multiplies coefficients in
integer form (Gaussian-integer numerators over an int and those linear
factors), sums the contributions to each output basis function over one
common denominator and reduces each sum once, in
``NuRationalFunction._from_ints``.  A :class:`DiskElement` is a
combination of basis functions (:mod:`._combination`) keyed by ``(p, q)``.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm
from typing import Mapping

from ..nupoly import (
    NRF_ZERO,
    IntForm,
    NuPolynomial,
    NuRationalFunction,
    _linear_ints,
    _pochhammer_js,
    _sum,
    _times,
    _weight_ints,
)
from ._combination import Combination

__all__ = [
    "DiskElement",
    "disk_product",
    "disk_basis_coefficient",
    "neg_nu_pochhammer",
]


@lru_cache(maxsize=64)
def neg_nu_pochhammer(k: int) -> NuPolynomial:
    """The Pochhammer product with the parameter negated: (1 + nu)(1 + 2 nu)..."""
    return NuPolynomial(_linear_ints(_pochhammer_js(k, -1)))


def _as_coefficient(value) -> NuRationalFunction:
    if isinstance(value, NuRationalFunction):
        return value
    if isinstance(value, NuPolynomial):
        return NuRationalFunction(value)
    return NuRationalFunction.constant(value)


class DiskElement(Combination):
    """Finite combination of disk basis functions with nu-rational weights."""

    __slots__ = ("coeffs",)
    _mismatch = "mismatched disk elements"

    def __init__(self, coeffs: Mapping[tuple[int, int], object] | None = None) -> None:
        pairs = []
        for (p, q), value in (coeffs or {}).items():
            if p < 0 or q < 0:
                raise ValueError("disk basis indices are nonnegative")
            pairs.append(((p, q), _as_coefficient(value)))
        self._assign((), pairs)

    @classmethod
    def zero(cls) -> "DiskElement":
        return cls()

    @classmethod
    def basis(cls, p: int, q: int, coeff: object = 1) -> "DiskElement":
        return cls({(p, q): _as_coefficient(coeff)})

    @classmethod
    def unit(cls) -> "DiskElement":
        return cls.basis(0, 0)

    def coefficient(self, p: int, q: int) -> NuRationalFunction:
        return self.coeffs.get((p, q), NRF_ZERO)

    def scale(self, factor: object) -> "DiskElement":
        coeff = _as_coefficient(factor)
        return self._built((), ((key, value * coeff) for key, value in self.coeffs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"f[{p},{q}]: {c}" for (p, q), c in sorted(self.coeffs.items()))
        return f"DiskElement({inner})"


@lru_cache(maxsize=1 << 12)
def disk_basis_coefficient(q: int, r: int, s: int, m: int) -> NuRationalFunction:
    """Weight of the m-th contraction in a product of two basis functions."""
    return NuRationalFunction._from_ints(*_weight_ints(q, s, m, -1, perm(q, m) * perm(r, m)))


def disk_product(left: DiskElement, right: DiskElement) -> DiskElement:
    """Bilinear extension of the basis product, exact over nu-rationals.

    The contributions are grouped by output basis function.  Each is the
    integer product of the two coefficients and the basis weight, and each
    group is summed over the lcm of their denominators and reduced once
    (``nupoly._sum``).  Each weight is read from the bounded cache once per
    product, so a product that needs more weights than the cache holds
    does not cycle it.
    """
    rights = [(r, s, b._ints()) for (r, s), b in right.coeffs.items()]
    weights: dict[tuple[int, int, int, int], IntForm] = {}
    groups: dict[tuple[int, int], list] = {}
    for (p, q), a in left.coeffs.items():
        a_ints = a._ints()
        for r, s, b_ints in rights:
            pair = _times(a_ints, b_ints)
            for m in range(min(q, r) + 1):
                weight = weights.get((q, r, s, m))
                if weight is None:
                    weight = weights[q, r, s, m] = disk_basis_coefficient(q, r, s, m)._ints()
                groups.setdefault((p + r - m, q + s - m), []).append((pair, weight))
    out = [(key, _sum(_times(pair, weight) for pair, weight in group)) for key, group in groups.items()]
    return DiskElement._built((), out)
