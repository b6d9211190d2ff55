"""Moyal algebra of Fourier modes on the even torus, with finite quotients.

A mode is indexed by an integer vector k and stands for the function
``exp(2 pi i k . phi)`` in the angle coordinates.  Products of modes only
ever multiply by phases ``exp(2 pi i theta)`` with rational theta, so all
scalars live in the ring of finite sums of (rational amplitude, rational
phase) pairs -- no floating point and no cyclotomic field tower.

Such a sum is stored on integers: the phases as residues ``r`` over one
modulus, the least common denominator of the phases, and the amplitudes as
numerators over one denominator, the least common denominator of the
amplitudes.  The form is canonical, so equality and hashing are structural:
two sums are equal when they have the same amplitude at every phase.  That
is not value equality, since ``1 + w + w**2`` is zero for ``w`` a primitive
cube root of unity; comparing values means reducing modulo the cyclotomic
polynomial of the modulus, which the residue form is ready for but no
product here needs.  A product at the parameter ``p / q`` rotates each pair
of modes by the residue of ``p`` times their integer pairing modulo ``q``.

At parameter 1/K with an integer coefficient matrix whose entries have
greatest common divisor one, folding mode vectors componentwise modulo K
is compatible with the product; the folded algebra has exactly K**dim
basis classes.  Both algebras' values are combinations of modes
(:mod:`._combination`) keyed by the dimension, the matrix and the
parameter or the fold order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from ..linalg import _eliminate
from ..scalars import _ratio
from ._combination import Combination

__all__ = [
    "PhaseSum",
    "PHASE_ZERO",
    "PHASE_ONE",
    "FourierSum",
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

    Stored in one canonical integer form: ``mod`` is the least common
    denominator of the phases and ``den`` that of the amplitudes, and
    ``amps`` maps each residue ``r`` (the phase ``r / mod``, ``0 <= r < mod``)
    to its nonzero amplitude numerator (the amplitude ``amps[r] / den``).
    Addition merges equal phases; multiplication adds phases modulo one.
    Equality and hashing are structural on this form.  ``terms`` is the
    same map with :class:`Fraction` phases and amplitudes, computed on each
    read.  Every computed result is built by ``_phase_sum``.
    """

    __slots__ = ("mod", "den", "amps")

    def __new__(cls, terms: Mapping[Fraction, Fraction] | None = None) -> "PhaseSum":
        parts = []
        for phase, amp in (terms or {}).items():
            amp = _ratio(amp)
            if amp[0]:
                parts.append((_ratio(phase), amp))
        return _from_parts(parts)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PhaseSum is immutable")

    @classmethod
    def of(cls, amplitude, phase=0) -> "PhaseSum":
        phase = _ratio(phase)
        return _from_parts([(phase, _ratio(amplitude))])

    @property
    def terms(self) -> dict[Fraction, Fraction]:
        mod, den = self.mod, self.den
        return {Fraction(r, mod): Fraction(a, den) for r, a in self.amps.items()}

    def is_zero(self) -> bool:
        return not self.amps

    def __bool__(self) -> bool:
        return bool(self.amps)

    def _lifted(self, mod: int, den: int, sign: int) -> dict[int, int]:
        """``sign`` times the amplitudes over the multiples ``mod`` and ``den``
        of this sum's modulus and denominator."""
        step, scale = mod // self.mod, sign * (den // self.den)
        return {r * step: a * scale for r, a in self.amps.items()}

    def _plus(self, other: "PhaseSum", sign: int) -> "PhaseSum":
        mod, den = lcm(self.mod, other.mod), lcm(self.den, other.den)
        out = self._lifted(mod, den, 1)
        for r, a in other._lifted(mod, den, sign).items():
            out[r] = out.get(r, 0) + a
        return _phase_sum(mod, den, out)

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        return self._plus(other, 1)

    def __sub__(self, other: "PhaseSum") -> "PhaseSum":
        return self._plus(other, -1)

    def __neg__(self) -> "PhaseSum":
        return _phase_sum(self.mod, self.den, {r: -a for r, a in self.amps.items()})

    def _times(self, other: "PhaseSum", shift: int, q: int) -> "PhaseSum":
        """``self * other * exp(2 pi i shift / q)``, for ``q > 0``."""
        mod = lcm(self.mod, other.mod, q)
        step, step2, shift = mod // self.mod, mod // other.mod, shift * (mod // q)
        right = [(r * step2, a) for r, a in other.amps.items()]
        out: dict[int, int] = {}
        for r1, a1 in self.amps.items():
            base = r1 * step + shift
            for r2, a2 in right:
                r = (base + r2) % mod
                out[r] = out.get(r, 0) + a1 * a2
        return _phase_sum(mod, self.den * other.den, out)

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        return self._times(other, 0, 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseSum):
            return NotImplemented
        return self.mod == other.mod and self.den == other.den and self.amps == other.amps

    def __hash__(self) -> int:
        return hash((self.mod, self.den, frozenset(self.amps.items())))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{amp}@{phase}" for amp, phase in self.to_pairs()
        )
        return f"PhaseSum({inner})"

    def to_pairs(self) -> list[tuple[Fraction, Fraction]]:
        """Sorted (amplitude, phase) pairs, canonical for serialization."""
        mod, den = self.mod, self.den
        return [(Fraction(a, den), Fraction(r, mod)) for r, a in sorted(self.amps.items())]


_new = object.__new__
_set_mod = PhaseSum.mod.__set__
_set_den = PhaseSum.den.__set__
_set_amps = PhaseSum.amps.__set__


def _phase_sum(mod: int, den: int, amps: dict[int, int]) -> PhaseSum:
    """The phase sum ``sum(a / den * exp(2 pi i r / mod))`` over ``amps``,
    for residues ``0 <= r < mod`` and ``den > 0``: the one normalising
    constructor.  It drops zero amplitudes and divides out the gcd of
    ``mod`` and the residues and the gcd of ``den`` and the amplitudes."""
    if 0 in amps.values():
        amps = {r: a for r, a in amps.items() if a}
    if not amps:
        mod = den = 1
    else:
        g, h = gcd(mod, *amps), gcd(den, *amps.values())
        if g != 1 or h != 1:
            mod, den = mod // g, den // h
            amps = {r // g: a // h for r, a in amps.items()}
    value = _new(PhaseSum)
    _set_mod(value, mod)
    _set_den(value, den)
    _set_amps(value, amps)
    return value


def _from_parts(parts: Iterable[tuple[tuple[int, int], tuple[int, int]]]) -> PhaseSum:
    """The phase sum of ``((p, q), (a, b))`` parts, the amplitude ``a / b`` at
    the phase ``p / q`` (``q > 0``, ``b > 0``).  Amplitudes at phases equal
    modulo one add up."""
    parts = list(parts)
    mod = lcm(*(q for (_, q), _ in parts))
    den = lcm(*(b for _, (_, b) in parts))
    amps: dict[int, int] = {}
    for (p, q), (a, b) in parts:
        r = p % q * (mod // q)
        amps[r] = amps.get(r, 0) + a * (den // b)
    return _phase_sum(mod, den, amps)


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
    if len(_eliminate([[(entry, 0) for entry in row] for row in rows], dim)) < dim:
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


def _pairing_row(k: Mode, matrix: Sequence[Sequence[int]]) -> list[int]:
    """The row ``k^T M`` of the coefficient matrix ``M``, whose dot product
    with a mode ``k'`` is the integer pairing ``k^T M k'`` of the two modes."""
    return [sum(map(mul, k, column)) for column in zip(*matrix)]


def _mode_products(
    left: Mapping[Mode, PhaseSum], right: Mapping[Mode, PhaseSum], matrix: IntMatrix, p: int, q: int
) -> Iterator[tuple[Mode, PhaseSum]]:
    """The (mode, value) pairs of the product of two mode maps at the
    parameter ``p / q``: each pair's value rotated by ``p`` times its pairing
    over ``q``."""
    for k, a in left.items():
        row = _pairing_row(k, matrix)
        for k2, b in right.items():
            yield tuple(map(add, k, k2)), a._times(b, p * sum(map(mul, row, k2)) % q, q)


class FourierSum(Combination):
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
        if type(parameter) is not Fraction:
            parameter = Fraction(parameter)
        self._assign((dim, _check_matrix(matrix, dim), parameter), _checked_pairs(dim, coeffs))

    def _key(self) -> tuple[int, IntMatrix, Fraction]:
        return self.dim, self.matrix, self.parameter

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


def moyal_product(left: FourierSum, right: FourierSum) -> FourierSum:
    """Bilinear extension of the mode product with exact phase arithmetic."""
    left._compatible(right)
    parameter = left.parameter
    pairs = _mode_products(left.coeffs, right.coeffs, left.matrix, parameter.numerator, parameter.denominator)
    return left._built(left._key(), pairs)


def torus_quotient_dimension(dim: int, K: int) -> int:
    return K**dim


class TorusQuotientElement(Combination):
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
        pairs = _mode_products(self.coeffs, other.coeffs, self.matrix, 1, self.K)
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
    if (func.parameter.numerator, func.parameter.denominator) != (1, K):
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
