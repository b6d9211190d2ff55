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
from math import gcd
from typing import Mapping, Sequence

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


class FourierSum:
    """Finite combination of torus modes with phase-pair coefficients."""

    __slots__ = ("dim", "matrix", "parameter", "coeffs")

    def __init__(
        self,
        dim: int,
        matrix: Sequence[Sequence[int]],
        parameter,
        coeffs: Mapping[Mode, PhaseSum] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows = _check_matrix(matrix, dim)
        cleaned: dict[Mode, PhaseSum] = {}
        for mode, value in (coeffs or {}).items():
            mode = tuple(mode)
            if len(mode) != dim:
                raise ValueError("mode vectors must match the dimension")
            cleaned[mode] = value if isinstance(value, PhaseSum) else PhaseSum.of(value)
        self._fill(dim, rows, Fraction(parameter), cleaned)

    def _fill(
        self, dim: int, matrix: IntMatrix, parameter: Fraction, coeffs: Mapping[Mode, PhaseSum]
    ) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "coeffs", {mode: value for mode, value in coeffs.items() if value})

    @classmethod
    def _trusted(
        cls, dim: int, matrix: IntMatrix, parameter: Fraction, coeffs: Mapping[Mode, PhaseSum]
    ) -> "FourierSum":
        """The sum of ``coeffs``, less its zeros: the trusted path for computed
        results, whose matrix is checked already."""
        value = object.__new__(cls)
        value._fill(dim, matrix, parameter, coeffs)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FourierSum is immutable")

    @classmethod
    def zero(cls, dim: int, matrix, parameter) -> "FourierSum":
        return cls(dim, matrix, parameter)

    @classmethod
    def mode(cls, dim: int, matrix, parameter, k: Mode, amplitude=1, phase=0) -> "FourierSum":
        return cls(dim, matrix, parameter, {tuple(k): PhaseSum.of(amplitude, phase)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other: "FourierSum") -> None:
        if (
            self.dim != other.dim
            or self.matrix != other.matrix
            or self.parameter != other.parameter
        ):
            raise ValueError("mismatched torus algebras")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FourierSum):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.matrix == other.matrix
            and self.parameter == other.parameter
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.matrix, self.parameter, frozenset(self.coeffs.items())))

    def __add__(self, other: "FourierSum") -> "FourierSum":
        self._compatible(other)
        out = dict(self.coeffs)
        for mode, value in other.coeffs.items():
            out[mode] = out.get(mode, PHASE_ZERO) + value
        return FourierSum._trusted(self.dim, self.matrix, self.parameter, out)

    def __sub__(self, other: "FourierSum") -> "FourierSum":
        self._compatible(other)
        out = dict(self.coeffs)
        for mode, value in other.coeffs.items():
            out[mode] = out.get(mode, PHASE_ZERO) - value
        return FourierSum._trusted(self.dim, self.matrix, self.parameter, out)

    def scale(self, value: PhaseSum | Fraction | int) -> "FourierSum":
        if not isinstance(value, PhaseSum):
            value = PhaseSum.of(value)
        coeffs = {mode: coeff * value for mode, coeff in self.coeffs.items()}
        return FourierSum._trusted(self.dim, self.matrix, self.parameter, coeffs)

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
    out: dict[Mode, PhaseSum] = {}
    for k, a in left.coeffs.items():
        for k2, b in right.coeffs.items():
            phase, mode = moyal_modes(k, k2, left.matrix, left.parameter)
            value = (a * b).rotate(phase)
            merged = out.get(mode, PHASE_ZERO) + value
            if merged:
                out[mode] = merged
            elif mode in out:
                del out[mode]
    return FourierSum._trusted(left.dim, left.matrix, left.parameter, out)


def torus_quotient_dimension(dim: int, K: int) -> int:
    return K**dim


class TorusQuotientElement:
    """Element of the mode algebra folded modulo K in every component."""

    __slots__ = ("dim", "matrix", "K", "coeffs")

    def __init__(
        self,
        dim: int,
        matrix: Sequence[Sequence[int]],
        K: int,
        coeffs: Mapping[Mode, PhaseSum] | None = None,
    ) -> None:
        if K < 1:
            raise ValueError("fold order must be positive")
        self._fill(dim, _check_matrix(matrix, dim), K, coeffs or {})

    def _fill(self, dim: int, matrix: IntMatrix, K: int, coeffs: Mapping[Mode, PhaseSum]) -> None:
        cleaned: dict[Mode, PhaseSum] = {}
        for mode, value in coeffs.items():
            folded = tuple(c % K for c in mode)
            if value:
                merged = cleaned.get(folded, PHASE_ZERO) + value
                if merged:
                    cleaned[folded] = merged
                elif folded in cleaned:
                    del cleaned[folded]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _trusted(
        cls, dim: int, matrix: IntMatrix, K: int, coeffs: Mapping[Mode, PhaseSum]
    ) -> "TorusQuotientElement":
        """The fold of ``coeffs`` modulo ``K``, less its zeros: the trusted
        path for computed results, whose matrix and ``K`` are checked already."""
        value = object.__new__(cls)
        value._fill(dim, matrix, K, coeffs)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TorusQuotientElement is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other: "TorusQuotientElement") -> None:
        if self.dim != other.dim or self.matrix != other.matrix or self.K != other.K:
            raise ValueError("mismatched torus quotients")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusQuotientElement):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.matrix == other.matrix
            and self.K == other.K
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.matrix, self.K, frozenset(self.coeffs.items())))

    def __add__(self, other: "TorusQuotientElement") -> "TorusQuotientElement":
        self._compatible(other)
        out = dict(self.coeffs)
        for mode, value in other.coeffs.items():
            out[mode] = out.get(mode, PHASE_ZERO) + value
        return TorusQuotientElement._trusted(self.dim, self.matrix, self.K, out)

    def __sub__(self, other: "TorusQuotientElement") -> "TorusQuotientElement":
        self._compatible(other)
        out = dict(self.coeffs)
        for mode, value in other.coeffs.items():
            out[mode] = out.get(mode, PHASE_ZERO) - value
        return TorusQuotientElement._trusted(self.dim, self.matrix, self.K, out)

    def product(self, other: "TorusQuotientElement") -> "TorusQuotientElement":
        """Induced product, computed on the canonical representatives."""
        self._compatible(other)
        parameter = Fraction(1, self.K)
        out: dict[Mode, PhaseSum] = {}
        for k, a in self.coeffs.items():
            for k2, b in other.coeffs.items():
                phase, mode = moyal_modes(k, k2, self.matrix, parameter)
                folded = tuple(c % self.K for c in mode)
                value = (a * b).rotate(phase)
                merged = out.get(folded, PHASE_ZERO) + value
                if merged:
                    out[folded] = merged
                elif folded in out:
                    del out[folded]
        return TorusQuotientElement._trusted(self.dim, self.matrix, self.K, out)

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
    return TorusQuotientElement._trusted(func.dim, func.matrix, K, func.coeffs)


def check_quotient_ideal(
    func_modes: Sequence[tuple[Mode, Mode]],
    other: FourierSum,
    K: int,
) -> bool:
    """Differences of K-congruent modes stay in the fold kernel under products.

    For each pair (k, k'), forms the element T_k - T_{k + K k'}, multiplies
    by the given sum on both sides, and checks the folded images vanish.
    """
    dim, matrix, parameter = other.dim, other.matrix, other.parameter
    for k, k_shift in func_modes:
        k, k_shift = tuple(k), tuple(k_shift)
        if len(k) != dim or len(k_shift) != dim:
            raise ValueError("mode vectors must match the dimension")
        shifted = tuple(u + K * v for u, v in zip(k, k_shift))
        # the modes share the matrix ``other`` was checked with
        diff = FourierSum._trusted(dim, matrix, parameter, {k: PHASE_ONE}) - FourierSum._trusted(
            dim, matrix, parameter, {shifted: PHASE_ONE}
        )
        if not torus_quotient(moyal_product(diff, other), K).is_zero():
            return False
        if not torus_quotient(moyal_product(other, diff), K).is_zero():
            return False
    return True
