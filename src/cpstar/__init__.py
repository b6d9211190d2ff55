"""Exact star products on complex projective space, with companion models.

The package computes, in exact rational arithmetic, the Wick-type star
product of operator symbols on CP^n: symbols as symmetric tensors, the
finite combinatorial product formula, the filtered subalgebra in which
the formal parameter may be evaluated, and its finite matrix-algebra
quotients.  Companion subpackages cover the radial, flat, torus, and
disk models, and :mod:`cpstar.cli` exposes everything on the command
line.
"""

from .checks import CheckReport, run_suite
from .nupoly import NuPolynomial, NuRationalFunction, nu_pochhammer
from .quotient import (
    IdealFactorization,
    NotInIdealError,
    QuotientOperator,
    StarUndefinedError,
    check_irreducible,
    ideal_factorize,
    quotient_dimension,
    quotient_map,
    representative_element,
    star_at,
    substitute,
)
from .scalars import GaussRational
from .star import (
    RawNuSeries,
    StarElement,
    StarProductTerms,
    extract_structure,
    star_commutator,
    star_elements,
    star_symbols,
)
from .symbols import (
    SymbolTensor,
    embed,
    identity_symbol,
    operator_product,
    pointwise_mul,
    reduce_to_min,
    symbol_of_matrix,
    wick_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "run_suite",
    "NuPolynomial",
    "NuRationalFunction",
    "nu_pochhammer",
    "IdealFactorization",
    "NotInIdealError",
    "QuotientOperator",
    "StarUndefinedError",
    "check_irreducible",
    "ideal_factorize",
    "quotient_dimension",
    "quotient_map",
    "representative_element",
    "star_at",
    "substitute",
    "GaussRational",
    "RawNuSeries",
    "StarElement",
    "StarProductTerms",
    "extract_structure",
    "star_commutator",
    "star_elements",
    "star_symbols",
    "SymbolTensor",
    "embed",
    "identity_symbol",
    "operator_product",
    "pointwise_mul",
    "reduce_to_min",
    "symbol_of_matrix",
    "wick_contraction",
    "__version__",
]
