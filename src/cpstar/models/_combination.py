"""The one core of every companion model's values.

A disk element, a radial polynomial, a flat exponential-polynomial
function, a Fourier sum and a folded torus element are each a finite
combination of basis functions with coefficients in a ring.
:class:`Combination` holds what they share: the canonical map from basis
keys to nonzero coefficients, immutability, structural equality and
hashing, and ``+`` and ``-``.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable, Optional

__all__ = ["Combination"]


class Combination:
    """An immutable map ``coeffs`` from basis keys to nonzero coefficients
    over one algebra.

    A subclass lists its algebra's fields first in its ``__slots__``, then
    ``coeffs``, and returns their values from ``_key`` (``()`` by default,
    for a class with one algebra).  It may fold each basis key onto a
    representative (``_fold``), and it names the message for operands of
    different algebras (``_mismatch``).  Every value is built by
    ``_assign``: the subclass ``__init__`` calls it once its input is
    validated and coerced, and every computed result, whose coefficients
    are ring elements already, goes through ``_built``.
    """

    __slots__ = ()
    _fold: Optional[Callable[[Hashable], Hashable]] = None
    _mismatch: str

    def _assign(self, key: tuple, pairs: Iterable[tuple[Hashable, object]]) -> None:
        """Set the algebra ``key`` and the coefficients of the (basis,
        value) ``pairs``: each basis key folded, equal keys merged, zeros
        dropped."""
        for name, part in zip(self.__slots__, key):
            object.__setattr__(self, name, part)
        fold = self._fold
        if fold is not None:
            pairs = ((fold(basis), value) for basis, value in pairs)
        coeffs: dict = {}
        for basis, value in pairs:
            if basis in coeffs:
                value = coeffs[basis] + value
            if value:
                coeffs[basis] = value
            else:
                coeffs.pop(basis, None)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _built(cls, key: tuple, pairs: Iterable[tuple[Hashable, object]]):
        """The value of ``pairs`` over the algebra ``key``, both checked
        already: the path of every computed result."""
        value = object.__new__(cls)
        value._assign(key, pairs)
        return value

    def _key(self) -> tuple:
        return ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other: "Combination") -> None:
        # keys of two classes can compare equal (parameter 2 and K = 2)
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
        negated = ((basis, -value) for basis, value in other.coeffs.items())
        return self._built(self._key(), chain(self.coeffs.items(), negated))
