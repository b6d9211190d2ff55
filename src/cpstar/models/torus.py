"""Moyal algebra of Fourier modes on the even torus, with finite quotients.

A mode is indexed by an integer vector k and stands for the function
``exp(2 pi i k . phi)`` in the angle coordinates.  Products of modes only
ever multiply by phases ``exp(2 pi i theta)`` with rational theta, so all
scalars live in the ring of finite sums of (rational amplitude, rational
phase) pairs -- no floating point and no cyclotomic field tower.

At parameter 1/K with an integer coefficient matrix whose entries have
greatest common divisor one, folding mode vectors componentwise modulo K
is compatible with the product; the folded algebra has exactly K**dim
basis classes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from ..linalg import matrix_rank
from ..scalars import GaussRational

__all__ = [
    "PhaseSum",
    "PHASE_ZERO",
    "PHASE_ONE",
    "FourierSum",
    "moyal_modes",
    "moyal_product",
    "TorusQuotientElement",
    "torus_quotient",
    "torus_quotient_dimension",
    "check_quotient_ideal",
]

Mode = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


class PhaseSum:
    """Finite sum of terms ``amplitude * exp(2 pi i phase)``, phases in [0, 1).

    Addition merges equal phases; multiplication adds phases modulo one.
    Equality is structural on the merged form, which is all the product
    formulas need: phases only ever combine additively, so no hidden
    root-of-unity relations can separate equal expressions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Fraction, Fraction] | None = None) -> None:
        cleaned: dict[Fraction, Fraction] = {}
        for phase, amp in (terms or {}).items():
            amp = Fraction(amp)
            if amp:
                cleaned[Fraction(phase) % 1] = amp
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PhaseSum is immutable")

    @classmethod
    def of(cls, amplitude, phase=0) -> "PhaseSum":
        return cls({Fraction(phase): Fraction(amplitude)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        out = dict(self.terms)
        for phase, amp in other.terms.items():
            out[phase] = out.get(phase, Fraction(0)) + amp
        return PhaseSum(out)

    def __sub__(self, other: "PhaseSum") -> "PhaseSum":
        return self + (-other)

    def __neg__(self) -> "PhaseSum":
        return PhaseSum({phase: -amp for phase, amp in self.terms.items()})

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        out: dict[Fraction, Fraction] = {}
        for p1, a1 in self.terms.items():
            for p2, a2 in other.terms.items():
                phase = (p1 + p2) % 1
                out[phase] = out.get(phase, Fraction(0)) + a1 * a2
        return PhaseSum(out)

    def rotate(self, phase) -> "PhaseSum":
        """Multiply by a unit phase factor."""
        shift = Fraction(phase)
        return PhaseSum({(p + shift) % 1: a for p, a in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{amp}@{phase}" for phase, amp in sorted(self.terms.items())
        )
        return f"PhaseSum({inner})"

    def to_pairs(self) -> list[tuple[Fraction, Fraction]]:
        """Sorted (amplitude, phase) pairs, canonical for serialization."""
        return [(amp, phase) for phase, amp in sorted(self.terms.items())]


PHASE_ZERO = PhaseSum()
PHASE_ONE = PhaseSum.of(1)


def _check_matrix(matrix: Sequence[Sequence[int]], dim: int) -> IntMatrix:
    rows = tuple(tuple(row) for row in matrix)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError(f"coefficient matrix must be {dim}x{dim}")
    for row in rows:
        for entry in row:
            if not isinstance(entry, int):
                raise ValueError("coefficient matrix must have integer entries")
    gauss = [[GaussRational(entry) for entry in row] for row in rows]
    if matrix_rank(gauss) != dim:
        raise ValueError("coefficient matrix must be nondegenerate")
    return rows


def _checked_pairs(dim: int, coeffs: Mapping[Mode, PhaseSum] | None) -> list[tuple[Mode, PhaseSum]]:
    """The (mode, value) pairs of a constructor's ``coeffs``: modes of
    length ``dim``, plain amplitudes as phase sums."""
    pairs = []
    for mode, value in (coeffs or {}).items():
        mode = tuple(mode)
        if len(mode) != dim:
            raise ValueError("mode vectors must match the dimension")
        pairs.append((mode, value if isinstance(value, PhaseSum) else PhaseSum.of(value)))
    return pairs


class _ModeSum:
    """What :class:`FourierSum` and :class:`TorusQuotientElement` share: an
    immutable map ``coeffs`` from modes to nonzero phase sums over one algebra.

    A subclass gives its algebra key (``_key``, which its ``__slots__`` list
    first, then ``coeffs``), how it folds a mode (``_fold``) and the message
    for mismatched algebras.  Every value is built by ``_assign``.
    """

    __slots__ = ()

    def _assign(self, key: tuple, pairs: Iterable[tuple[Mode, PhaseSum]]) -> None:
        """Set the algebra ``key`` and the coefficients of the (mode, value)
        ``pairs``: each mode folded, equal modes merged, zeros dropped."""
        for name, part in zip(self.__slots__, key):
            object.__setattr__(self, name, part)
        fold = self._fold
        coeffs: dict[Mode, PhaseSum] = {}
        for mode, value in pairs:
            mode = fold(mode)
            if mode in coeffs:
                value = coeffs[mode] + value
            if value:
                coeffs[mode] = value
            else:
                coeffs.pop(mode, None)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _built(cls, key: tuple, pairs: Iterable[tuple[Mode, PhaseSum]]):
        """The value of ``pairs`` over the algebra ``key``, which is checked
        already: the path of every computed result."""
        value = object.__new__(cls)
        value._assign(key, pairs)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other: "_ModeSum") -> None:
        # the two classes' keys can compare equal (parameter 2 and K = 2)
        if type(other) is not type(self) or other._key() != self._key():
            raise ValueError(self._mismatch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key() and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self._key() + (frozenset(self.coeffs.items()),))

    def __add__(self, other):
        self._compatible(other)
        return self._built(self._key(), chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other):
        self._compatible(other)
        negated = ((mode, -value) for mode, value in other.coeffs.items())
        return self._built(self._key(), chain(self.coeffs.items(), negated))


def _mode_products(
    left: Mapping[Mode, PhaseSum], right: Mapping[Mode, PhaseSum], matrix: IntMatrix, parameter: Fraction
) -> Iterator[tuple[Mode, PhaseSum]]:
    """The (mode, value) pairs of the product of two mode maps at ``parameter``."""
    for k, a in left.items():
        for k2, b in right.items():
            phase, mode = moyal_modes(k, k2, matrix, parameter)
            yield mode, (a * b).rotate(phase)


class FourierSum(_ModeSum):
    """Finite combination of torus modes with phase-pair coefficients."""

    __slots__ = ("dim", "matrix", "parameter", "coeffs")
    _mismatch = "mismatched torus algebras"

    def __init__(
        self,
        dim: int,
        matrix: Sequence[Sequence[int]],
        parameter,
        coeffs: Mapping[Mode, PhaseSum] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        self._assign((dim, _check_matrix(matrix, dim), Fraction(parameter)), _checked_pairs(dim, coeffs))

    def _key(self) -> tuple[int, IntMatrix, Fraction]:
        return self.dim, self.matrix, self.parameter

    def _fold(self, mode: Mode) -> Mode:
        return mode

    @classmethod
    def zero(cls, dim: int, matrix, parameter) -> "FourierSum":
        return cls(dim, matrix, parameter)

    @classmethod
    def mode(cls, dim: int, matrix, parameter, k: Mode, amplitude=1, phase=0) -> "FourierSum":
        return cls(dim, matrix, parameter, {tuple(k): PhaseSum.of(amplitude, phase)})

    def scale(self, value: PhaseSum | Fraction | int) -> "FourierSum":
        if not isinstance(value, PhaseSum):
            value = PhaseSum.of(value)
        return self._built(self._key(), ((mode, coeff * value) for mode, coeff in self.coeffs.items()))

    def __repr__(self) -> str:
        return (
            f"FourierSum(dim={self.dim}, parameter={self.parameter}, "
            f"modes={sorted(self.coeffs)})"
        )


def moyal_modes(
    k: Mode, k_prime: Mode, matrix: Sequence[Sequence[int]], parameter
) -> tuple[Fraction, Mode]:
    """Phase and combined mode for a product of two basis modes.

    The phase is the parameter times the bilinear pairing of the mode
    vectors through the coefficient matrix, reduced modulo one.
    """
    parameter = Fraction(parameter)
    pairing = 0
    for i, row in enumerate(matrix):
        ki = k[i]
        if not ki:
            continue
        for j, entry in enumerate(row):
            if entry and k_prime[j]:
                pairing += entry * ki * k_prime[j]
    mode = tuple(u + v for u, v in zip(k, k_prime))
    return (parameter * pairing) % 1, mode


def moyal_product(left: FourierSum, right: FourierSum) -> FourierSum:
    """Bilinear extension of the mode product with exact phase arithmetic."""
    left._compatible(right)
    return left._built(left._key(), _mode_products(left.coeffs, right.coeffs, left.matrix, left.parameter))


def torus_quotient_dimension(dim: int, K: int) -> int:
    return K**dim


class TorusQuotientElement(_ModeSum):
    """Element of the mode algebra folded modulo K in every component."""

    __slots__ = ("dim", "matrix", "K", "coeffs")
    _mismatch = "mismatched torus quotients"

    def __init__(
        self,
        dim: int,
        matrix: Sequence[Sequence[int]],
        K: int,
        coeffs: Mapping[Mode, PhaseSum] | None = None,
    ) -> None:
        if K < 1:
            raise ValueError("fold order must be positive")
        self._assign((dim, _check_matrix(matrix, dim), K), _checked_pairs(dim, coeffs))

    def _key(self) -> tuple[int, IntMatrix, int]:
        return self.dim, self.matrix, self.K

    def _fold(self, mode: Mode) -> Mode:
        K = self.K
        return tuple(c % K for c in mode)

    def product(self, other: "TorusQuotientElement") -> "TorusQuotientElement":
        """Induced product, computed on the canonical representatives."""
        self._compatible(other)
        pairs = _mode_products(self.coeffs, other.coeffs, self.matrix, Fraction(1, self.K))
        return self._built(self._key(), pairs)

    def __repr__(self) -> str:
        return (
            f"TorusQuotientElement(dim={self.dim}, K={self.K}, "
            f"classes={sorted(self.coeffs)})"
        )


def _entry_gcd(matrix: IntMatrix) -> int:
    value = 0
    for row in matrix:
        for entry in row:
            value = gcd(value, abs(entry))
    return value


def torus_quotient(func: FourierSum, K: int) -> TorusQuotientElement:
    """Fold a mode sum modulo K, checking the compatibility preconditions.

    Requires the deformation parameter to be exactly 1/K and the integer
    coefficient matrix to have entries with greatest common divisor one;
    under these the fold respects products, because representatives that
    differ by K times an integer vector change any product phase by the
    parameter times K times an integer pairing, a whole turn.
    """
    if K < 1:
        raise ValueError("fold order must be positive")
    if func.parameter != Fraction(1, K):
        raise ValueError(
            f"fold modulo {K} requires parameter 1/{K}, got {func.parameter}"
        )
    if _entry_gcd(func.matrix) != 1:
        raise ValueError("coefficient matrix entries must have gcd 1")
    return TorusQuotientElement._built((func.dim, func.matrix, K), func.coeffs.items())


def check_quotient_ideal(
    func_modes: Sequence[tuple[Mode, Mode]],
    other: FourierSum,
    K: int,
) -> bool:
    """Differences of K-congruent modes stay in the fold kernel under products.

    For each pair (k, k'), forms the element T_k - T_{k + K k'}, multiplies
    by the given sum on both sides, and checks the folded images vanish.
    """
    dim = other.dim
    for k, k_shift in func_modes:
        k, k_shift = tuple(k), tuple(k_shift)
        if len(k) != dim or len(k_shift) != dim:
            raise ValueError("mode vectors must match the dimension")
        shifted = tuple(u + K * v for u, v in zip(k, k_shift))
        # the modes share the matrix ``other`` was checked with
        diff = other._built(other._key(), ((k, PHASE_ONE), (shifted, -PHASE_ONE)))
        if not torus_quotient(moyal_product(diff, other), K).is_zero():
            return False
        if not torus_quotient(moyal_product(other, diff), K).is_zero():
            return False
    return True
