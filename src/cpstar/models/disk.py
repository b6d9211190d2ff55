"""Symbol algebra on the Poincare disk.

The basis functions are indexed by pairs (p, q) of nonnegative integers,
standing for ``v**p (vbar / (1 - |v|^2))**q`` on the unit disk.  Their
star product is normal ordering in the Weyl algebra (the Berezin calculus
on the weighted Bergman spaces of the disk): with ``D = d/dv``,

    f_{p,q} = c_q g_{p,q},   g_{p,q} = v^p D^q,
    c_q = nu^q / prod_{j<q}(1 + j nu),

and ``D^q v^r = sum over m of C(q, m) r!/(r-m)! v^(r-m) D^(q-m)``, so

    g_{p,q} g_{r,s} = sum over m from 0 to min(q, r) of
        C(q, m) r!/(r-m)! g_{p+r-m, q+s-m},

with int weights.  Back in the f basis the m-th term has the weight
``C(q, m) r!/(r-m)! c_q c_s / c_(q+s-m)`` (:func:`disk_basis_coefficient`):
the CP^n weight of :func:`cpstar.star._star_coefficient` at
``(k, l, t) = (q, s, m)`` with its Pochhammer products at ``-nu``, times
``q!/(q-m)! r!/(r-m)!``.  Since ``prod_{j<q}(1 + j nu)`` has no zero at
positive nu, nothing vanishes at ``nu = 1/K``, and the disk has no finite
quotient there, unlike CP^n.

:func:`disk_product` works in the g basis.  It brings each side's
coefficients over one int denominator and appends the factors of
``nu^q / c_q`` to their ``js``, leaving ``nu^q`` implicit; it adds each
product of numerators, times each int weight and shifted by ``nu^m``, into
one accumulator per output basis function and ``js``; and it reduces each
output once, over the union of its ``js``, times ``nu^Q / c_Q`` less the
factors that union already holds, in ``NuRationalFunction._from_ints``.
It reads no weight cache.  A :class:`DiskElement` is a combination of
basis functions (:mod:`._combination`) keyed by ``(p, q)``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm, perm
from typing import Mapping

from ..nupoly import (
    NRF_ZERO,
    NuPolynomial,
    NuRationalFunction,
    _difference,
    _gauss_mul,
    _linear_ints,
    _pochhammer_js,
    _union,
    _weight_ints,
    _widen_into,
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
    """Weight of the m-th contraction in a product of two basis functions:
    ``c_q c_s / c_(q+s-m)`` times the int weight of :func:`_weyl_weights`."""
    return NuRationalFunction._from_ints(*_weight_ints(q, s, m, -1, perm(q, m) * perm(r, m)))


@lru_cache(maxsize=1 << 10)
def _weyl_weights(q: int, r: int) -> tuple[int, ...]:
    """The int weights ``C(q, m) r!/(r - m)!`` of ``g_{p+r-m, q+s-m}`` in
    ``g_{p,q} g_{r,s}``, for m from 0 to min(q, r)."""
    return tuple(comb(q, m) * perm(r, m) for m in range(min(q, r) + 1))


def _weyl_js(q: int) -> tuple[int, ...]:
    """The sorted ``js`` of ``prod_{j<q}(1 + j nu)``, which is ``nu^q / c_q``."""
    return _pochhammer_js(q, -1)[::-1]


def _weyl_side(element: DiskElement) -> tuple[int, list]:
    """The coefficients of ``element`` in the Weyl basis over their lcm
    ``den``: ``(den, [(p, q, nums, js)])``, the coefficient of ``g_{p,q}``
    being ``nu^q nums / (den prod(1 - j nu))`` with ``js`` sorted."""
    forms = [(key, value._ints()) for key, value in element.coeffs.items()]
    den = lcm(*(d for _, (_, d, _) in forms))
    out = []
    for (p, q), (nums, d, js) in forms:
        if d != den:
            scale = den // d
            nums = [(re * scale, im * scale) for re, im in nums]
        if q > 1:
            js = tuple(sorted(js + _weyl_js(q))) if js else _weyl_js(q)
        out.append((p, q, nums, js))
    return den, out


def disk_product(left: DiskElement, right: DiskElement) -> DiskElement:
    """Bilinear extension of the basis product, exact over nu-rationals.

    Each side is brought into the Weyl basis once (:func:`_weyl_side`).
    Each pair of terms multiplies its numerators once and adds that
    product, times each int weight and shifted by ``nu^m``, into one
    accumulator per output basis function and ``js``.  Each output is then
    widened over the union of its ``js`` and multiplied by
    ``prod_{j<Q}(1 + j nu)``, less the factors the union already holds, and
    reduced once over the product of the two sides' ``den``.
    """
    left_den, lefts = _weyl_side(left)
    right_den, rights = _weyl_side(right)
    outputs: dict[tuple[int, int], dict[tuple[int, ...], list[list[int]]]] = {}
    for p, q, a_nums, a_js in lefts:
        for r, s, b_nums, b_js in rights:
            pair = _gauss_mul(a_nums, b_nums)
            js = tuple(sorted(a_js + b_js)) if a_js and b_js else a_js or b_js
            for m, weight in enumerate(_weyl_weights(q, r)):
                key = (p + r - m, q + s - m)
                by_js = outputs.get(key)
                if by_js is None:
                    by_js = outputs[key] = {}
                cells = by_js.get(js)
                if cells is None:
                    by_js[js] = [[0, 0] for _ in range(m)] + [[weight * re, weight * im] for re, im in pair]
                    continue
                missing = m + len(pair) - len(cells)
                if missing > 0:
                    cells.extend([0, 0] for _ in range(missing))
                for cell, (re, im) in zip(cells[m:], pair):
                    cell[0] += weight * re
                    cell[1] += weight * im
    den = left_den * right_den
    return DiskElement._built((), (((p, q), _output(by_js, q, den)) for (p, q), by_js in outputs.items()))


def _output(by_js: dict[tuple[int, ...], list[list[int]]], q: int, den: int) -> NuRationalFunction:
    """The coefficient of ``f_{p,q}`` from its Weyl-basis sums ``by_js``
    (``js`` to Gaussian-integer numerators over ``den``), reduced once."""
    kept, extras = _reduction(q, tuple(by_js))
    if extras == ((),):
        (total,) = by_js.values()
    else:
        groups = list(zip(by_js.values(), extras))
        total = [[0, 0] for _ in range(max(len(cells) + len(extra) for cells, extra in groups))]
        for cells, extra in groups:
            _widen_into(total, cells, 1, extra)
    return NuRationalFunction._from_ints(total, den, kept)


@lru_cache(maxsize=1 << 10)
def _reduction(q: int, groups: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """How the Weyl-basis sums over the ``js`` of ``groups`` become the
    coefficient of ``f_{p,q}``: ``(kept, extras)``, the ``js`` it is left
    over and the factors that widen each sum.

    With ``top`` the factors of ``nu^q / c_q``, every sum is widened over
    ``full``, the union of all ``groups`` and ``top``, and the value is left
    over ``full`` less ``top``: each factor of ``top`` that a sum holds
    cancels, and the rest multiply the numerators.  The plans repeat from
    product to product, so they are cached: over 1000 random triples of the
    bench's disk elements, 87% of the lookups hit."""
    top = full = _weyl_js(q)
    for js in groups:
        if js != full:
            full = _union(full, js)
    return _difference(full, top), tuple(_difference(full, js) for js in groups)
