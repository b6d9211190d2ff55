"""Explicit polynomials in the affine variables z and z-bar.

A term maps a pair of exponent vectors ``(zbar_exponents, z_exponents)`` —
each of length ``n + 1`` — to a coefficient.  This representation is the
deliberately naive counterpart of the symmetric-tensor encoding: products are
dict convolutions and derivatives act exponent by exponent.  The star-product
oracle and the radial-model cross-checks are built on it precisely because it
shares no code or conventions with the tensor fast path.

:func:`wick_orders`, the one literal Wick product, is the only code that
differentiates a ``ZPoly``: the contraction oracle, the radial literal
product (and through it the flat product of the translated polynomial
parts) and the ``oracle`` check suite all read its orders.

Coefficients only need ``+``, ``*`` and truthiness, so the same engine runs
over Gaussian rationals and over polynomials in a formal parameter.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

__all__ = ["ZPoly", "wick_orders"]

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]


class ZPoly:
    """Sparse polynomial in ``z^0..z^n`` and their conjugates."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[TermKey, object] | None = None) -> None:
        self.n = n
        self.terms: dict[TermKey, object] = {}
        if terms:
            for key, value in terms.items():
                if value:
                    self.terms[key] = value

    @classmethod
    def zero(cls, n: int) -> "ZPoly":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, zbar: Exponents, z: Exponents, coeff: object) -> "ZPoly":
        return cls(n, {(tuple(zbar), tuple(z)): coeff})

    def copy(self) -> "ZPoly":
        out = ZPoly(self.n)
        out.terms = dict(self.terms)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------

    def add_term(self, key: TermKey, coeff: object) -> None:
        current = self.terms.get(key)
        total = coeff if current is None else current + coeff
        if total:
            self.terms[key] = total
        elif key in self.terms:
            del self.terms[key]

    def __add__(self, other: "ZPoly") -> "ZPoly":
        out = self.copy()
        for key, value in other.terms.items():
            out.add_term(key, value)
        return out

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        out = self.copy()
        for key, value in other.terms.items():
            out.add_term(key, -value)
        return out

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        out = ZPoly(self.n)
        for (bar_a, z_a), va in self.terms.items():
            for (bar_b, z_b), vb in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(bar_a, bar_b)),
                    tuple(x + y for x, y in zip(z_a, z_b)),
                )
                out.add_term(key, va * vb)
        return out

    def scale(self, factor: object) -> "ZPoly":
        out = ZPoly(self.n)
        if not factor:
            return out
        for key, value in self.terms.items():
            out.add_term(key, value * factor)
        return out

    # -- differentiation ----------------------------------------------

    def diff_z(self, i: int) -> "ZPoly":
        """Partial derivative with respect to ``z^i``."""
        out = ZPoly(self.n)
        for (bar, z), value in self.terms.items():
            e = z[i]
            if e:
                lowered = z[:i] + (e - 1,) + z[i + 1 :]
                out.add_term((bar, lowered), value * e)
        return out

    def diff_zbar(self, i: int) -> "ZPoly":
        """Partial derivative with respect to the conjugate variable ``zbar^i``."""
        out = ZPoly(self.n)
        for (bar, z), value in self.terms.items():
            e = bar[i]
            if e:
                lowered = bar[:i] + (e - 1,) + bar[i + 1 :]
                out.add_term((lowered, z), value * e)
        return out

    # -- queries ------------------------------------------------------

    def evaluate(self, zbar_values: Iterable[object], z_values: Iterable[object]) -> object:
        """Evaluate with explicit values for the conjugates (exact, no floats)."""
        zbar_values = list(zbar_values)
        z_values = list(z_values)
        total: object = 0
        for (bar, z), coeff in self.terms.items():
            term = coeff
            for base, exp in zip(zbar_values, bar):
                for _ in range(exp):
                    term = term * base
            for base, exp in zip(z_values, z):
                for _ in range(exp):
                    term = term * base
            total = total + term
        return total

    def map_coefficients(self, fn: Callable[[object], object]) -> "ZPoly":
        out = ZPoly(self.n)
        for key, value in self.terms.items():
            out.add_term(key, fn(value))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"ZPoly(n={self.n}, {len(self.terms)} terms)"


def wick_orders(left: ZPoly, right: ZPoly) -> list[ZPoly]:
    """Entry t sums, over every ordered t-tuple of the ``n + 1`` coordinates,
    the t-fold z-derivative of ``left`` times the matching z-bar-derivative
    of ``right``.  Depth first; a branch ends at its first vanishing
    derivative, and the list at the last order that has a nonzero pair."""
    orders: list[ZPoly] = []

    def walk(d_left: ZPoly, d_right: ZPoly, t: int) -> None:
        if t == len(orders):
            orders.append(ZPoly(left.n))
        orders[t] = orders[t] + d_left * d_right
        for i in range(left.n + 1):
            next_left = d_left.diff_z(i)
            if next_left.terms:
                next_right = d_right.diff_zbar(i)
                if next_right.terms:
                    walk(next_left, next_right, t + 1)

    walk(left, right, 0)
    return orders
