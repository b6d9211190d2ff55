"""Seeded random instances for property checks and tests.

Everything takes an explicit :class:`random.Random` so that a seed pins
the whole run; generators only produce exact scalars.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .models.disk import DiskElement
from .models.torus import FourierSum, PhaseSum
from .nupoly import NRF_ZERO, NuRationalFunction
from .scalars import GaussRational
from .star import StarElement
from .symbols import SymbolTensor
from .multiindex import sorted_tuples

__all__ = [
    "random_scalar",
    "random_matrix",
    "random_antihermitean",
    "random_symbol",
    "random_element",
    "random_fourier",
    "random_disk",
]


def random_scalar(rng: random.Random, span: int = 3, complex_parts: bool = True) -> GaussRational:
    re = rng.randint(-span, span)
    im = rng.randint(-span, span) if complex_parts else 0
    return GaussRational(re, im)


def random_matrix(rng: random.Random, n: int, span: int = 3) -> list[list[GaussRational]]:
    return [
        [random_scalar(rng, span) for _ in range(n + 1)]
        for _ in range(n + 1)
    ]


def random_antihermitean(rng: random.Random, n: int, span: int = 3) -> list[list[GaussRational]]:
    """Matrix equal to minus its conjugate transpose."""
    size = n + 1
    out = [[GaussRational(0) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        out[i][i] = GaussRational(0, rng.randint(-span, span))
        for j in range(i + 1, size):
            value = random_scalar(rng, span)
            out[i][j] = value
            out[j][i] = -value.conjugate()
    return out


def random_symbol(
    rng: random.Random,
    n: int,
    k: int,
    density: float = 0.5,
    span: int = 3,
) -> SymbolTensor:
    """Sparse random symbol tensor; densities are per entry slot."""
    entries = {}
    indices = sorted_tuples(n, k)
    for left in indices:
        for right in indices:
            if rng.random() < density:
                value = random_scalar(rng, span)
                if value:
                    entries[(left, right)] = value
    return SymbolTensor(n, k, entries)


def random_element(
    rng: random.Random,
    n: int,
    level: int,
    density: float = 0.5,
    span: int = 3,
) -> StarElement:
    components = {}
    for r in range(level + 1):
        tensor = random_symbol(rng, n, r, density, span)
        if not tensor.is_zero():
            components[r] = tensor
    return StarElement(n, level, components)


def random_fourier(
    rng: random.Random,
    dim: int,
    matrix,
    parameter: Fraction,
    modes: int = 3,
    span: int = 3,
) -> FourierSum:
    coeffs = {}
    for _ in range(modes):
        mode = tuple(rng.randint(-span, span) for _ in range(dim))
        amp = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        phase = Fraction(rng.randint(0, 11), 12)
        if amp:
            existing = coeffs.get(mode, PhaseSum())
            coeffs[mode] = existing + PhaseSum.of(amp, phase)
    return FourierSum(dim, matrix, parameter, coeffs)


def random_disk(
    rng: random.Random,
    max_index: int = 3,
    terms: int = 3,
    span: int = 3,
) -> DiskElement:
    coeffs = {}
    for _ in range(terms):
        key = (rng.randint(0, max_index), rng.randint(0, max_index))
        value = NuRationalFunction.constant(Fraction(rng.randint(-span, span)))
        if value:
            coeffs[key] = coeffs.get(key, NRF_ZERO) + value
    return DiskElement({k: v for k, v in coeffs.items() if v})
