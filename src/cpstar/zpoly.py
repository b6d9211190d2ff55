"""Explicit polynomials in the affine variables z and z-bar.

A term maps a pair of exponent vectors ``(zbar_exponents, z_exponents)`` —
each ``n + 1`` nonnegative ints — to a coefficient.  This representation is
the deliberately naive counterpart of the symmetric-tensor encoding: a
product multiplies every pair of terms and adds each product, keyed by the
sums of the two pairs of exponent vectors, straight into one plain dict
that keeps zeros (``_mul_into``); zeros are dropped once, when the dict
becomes a ``ZPoly``.  Derivatives act exponent by exponent.  The
star-product oracle and the radial-model cross-checks are built on it
precisely because it shares no code or conventions with the tensor fast
path.  The constructor, ``monomial``, ``evaluate`` and every binary
operation refuse operands that do not fit ``n``; the engine's own results
are not checked again.

:func:`wick_orders`, the one literal Wick product, is the only code that
differentiates a ``ZPoly``: the contraction oracle, the radial literal
product (and through it the flat product of the translated polynomial
parts) and the ``oracle`` check suite all read its orders.  It keeps one
such dict per order for the whole walk and makes each a ``ZPoly`` once, at
the end.

Coefficients only need ``+``, ``*`` and truthiness, so the same engine runs
over Gaussian rationals and over polynomials in a formal parameter.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

__all__ = ["ZPoly", "wick_orders"]

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]


def _is_exponents(vector: object, width: int) -> bool:
    return type(vector) is tuple and len(vector) == width and all(type(e) is int and e >= 0 for e in vector)


class ZPoly:
    """Sparse polynomial in ``z^0..z^n`` and their conjugates."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[TermKey, object] | None = None) -> None:
        self.n = n
        self.terms: dict[TermKey, object] = {}
        if terms:
            width = n + 1
            for key, value in terms.items():
                if not (type(key) is tuple and len(key) == 2 and all(_is_exponents(v, width) for v in key)):
                    raise ValueError(f"a ZPoly({n}) term is keyed by two tuples of {width} nonnegative ints, not {key!r}")
                if value:
                    self.terms[key] = value

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
        _same_n(self, other)
        out = self.copy()
        for key, value in other.terms.items():
            out.add_term(key, value)
        return out

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        _same_n(self, other)
        out = self.copy()
        for key, value in other.terms.items():
            out.add_term(key, -value)
        return out

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        n = _same_n(self, other)
        acc: dict[TermKey, object] = {}
        _mul_into(acc, self.terms, other.terms)
        return _nonzero(n, acc)

    # -- differentiation ----------------------------------------------
    #
    # Lowering one exponent maps distinct terms to distinct terms, and a
    # nonzero coefficient times a positive exponent stays nonzero, so each
    # derivative is one comprehension with nothing to merge or drop.

    def diff_z(self, i: int) -> "ZPoly":
        """Partial derivative with respect to ``z^i``."""
        out = ZPoly(self.n)
        out.terms = {
            (bar, z[:i] + (z[i] - 1,) + z[i + 1 :]): value * z[i] for (bar, z), value in self.terms.items() if z[i]
        }
        return out

    def diff_zbar(self, i: int) -> "ZPoly":
        """Partial derivative with respect to the conjugate variable ``zbar^i``."""
        out = ZPoly(self.n)
        out.terms = {
            (bar[:i] + (bar[i] - 1,) + bar[i + 1 :], z): value * bar[i] for (bar, z), value in self.terms.items() if bar[i]
        }
        return out

    # -- queries ------------------------------------------------------

    def evaluate(self, zbar_values: Iterable[object], z_values: Iterable[object]) -> object:
        """Evaluate with explicit values for the conjugates (exact, no floats)."""
        zbar_values = list(zbar_values)
        z_values = list(z_values)
        if len(zbar_values) != self.n + 1 or len(z_values) != self.n + 1:
            raise ValueError(f"a ZPoly({self.n}) takes {self.n + 1} z-bar values and {self.n + 1} z values")
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"ZPoly(n={self.n}, {len(self.terms)} terms)"


def _same_n(left: ZPoly, right: ZPoly) -> int:
    if left.n != right.n:
        raise ValueError(f"a ZPoly over n={left.n} does not mix with one over n={right.n}")
    return left.n


def _mul_into(
    acc: dict[TermKey, object], left_terms: Mapping[TermKey, object], right_terms: Mapping[TermKey, object]
) -> None:
    """Add the product of every left and right term into ``acc``, keyed by
    the sums of their exponent vectors; a sum that reaches zero stays."""
    get = acc.get
    right_items = right_terms.items()
    for (bar_a, z_a), va in left_terms.items():
        for (bar_b, z_b), vb in right_items:
            key = (tuple(map(add, bar_a, bar_b)), tuple(map(add, z_a, z_b)))
            current = get(key)
            acc[key] = va * vb if current is None else current + va * vb


def _nonzero(n: int, terms: Mapping[TermKey, object]) -> ZPoly:
    """The engine's own sum as a ``ZPoly``: zeros dropped, keys taken as they are."""
    out = ZPoly(n)
    out.terms = {key: value for key, value in terms.items() if value}
    return out


def wick_orders(left: ZPoly, right: ZPoly) -> list[ZPoly]:
    """Entry t sums, over every ordered t-tuple of the ``n + 1`` coordinates,
    the t-fold z-derivative of ``left`` times the matching z-bar-derivative
    of ``right``.  Depth first; a branch ends at its first vanishing
    derivative, and the list at the last order that has a nonzero pair.
    Each pair's product goes straight into its order's sum."""
    n = _same_n(left, right)
    sums: list[dict[TermKey, object]] = []

    def walk(d_left: ZPoly, d_right: ZPoly, t: int) -> None:
        if t == len(sums):
            sums.append({})
        _mul_into(sums[t], d_left.terms, d_right.terms)
        for i in range(n + 1):
            next_left = d_left.diff_z(i)
            if next_left.terms:
                next_right = d_right.diff_zbar(i)
                if next_right.terms:
                    walk(next_left, next_right, t + 1)

    walk(left, right, 0)
    return [_nonzero(n, order) for order in sums]
