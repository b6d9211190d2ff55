"""Companion deformation models: radial Wick, flat exponentials, torus, disk,
each a finite combination of basis functions on one core, :mod:`._combination`."""

from .disk import DiskElement, disk_basis_coefficient, disk_product, neg_nu_pochhammer
from .flat import ExpPolyFunction, wick_product_flat
from .radial import (
    RadialPolynomial,
    check_scaling_consistency,
    check_star_exponential,
    closed_exponential_series,
    radial_pullback,
    s_on_monomial,
    star_exponential_series,
    validate_radial_recurrence,
    wick_product_literal,
    wick_radial_power,
    wick_star_x,
)
from .torus import (
    FourierSum,
    PhaseSum,
    TorusQuotientElement,
    check_quotient_ideal,
    moyal_product,
    torus_quotient,
    torus_quotient_dimension,
)

__all__ = [
    "DiskElement",
    "disk_basis_coefficient",
    "disk_product",
    "neg_nu_pochhammer",
    "ExpPolyFunction",
    "wick_product_flat",
    "RadialPolynomial",
    "check_scaling_consistency",
    "check_star_exponential",
    "closed_exponential_series",
    "radial_pullback",
    "s_on_monomial",
    "star_exponential_series",
    "validate_radial_recurrence",
    "wick_product_literal",
    "wick_radial_power",
    "wick_star_x",
    "FourierSum",
    "PhaseSum",
    "TorusQuotientElement",
    "check_quotient_ideal",
    "moyal_product",
    "torus_quotient",
    "torus_quotient_dimension",
]
