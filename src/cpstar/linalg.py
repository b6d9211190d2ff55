"""Exact linear algebra over the Gaussian rationals.

One fraction-free Gauss–Jordan elimination, ``_eliminate`` (Bareiss 1968,
Math. Comp. 22), on rows of Gaussian integers, each row cleared of its own
denominators.  The quotient rank and commutant checks and the torus
nondegeneracy check run it on int cells; :func:`linear_solve` and
:func:`matrix_rank` run it on ``GaussRational`` matrices.  Every division
is exact in Z[i], and ``GaussRational`` values are built only for the
results returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .scalars import GAUSS_ZERO, GaussRational, _gauss, to_gauss

__all__ = ["LinearSolveResult", "linear_solve", "matrix_rank"]

Cell = tuple[int, int]  # the Gaussian integer re + im i


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of solving ``A x = b`` exactly.

    ``kind`` is one of ``"unique"``, ``"parametrized"`` or ``"inconsistent"``.
    For solvable systems ``solution`` holds one exact solution (free variables
    set to zero); ``free_columns`` lists the columns left undetermined.
    """

    kind: str
    solution: Optional[tuple[GaussRational, ...]]
    free_columns: tuple[int, ...] = ()


def _integer_row(row: Sequence[GaussRational]) -> list[Cell]:
    """``row`` times the least common denominator of its entries."""
    forms = [to_gauss(value)._ints() for value in row]
    den = lcm(*(m for _, _, m in forms))
    return [(p * (den // m), q * (den // m)) for p, q, m in forms]


def _combined(p: Cell, row: list[Cell], a: Cell, pivot_row: list[Cell], d: Cell) -> list[Cell]:
    """``(p * row - a * pivot_row) / d`` in Z[i], where every quotient is exact."""
    (pr, pi), (ar, ai), (dr, di) = p, a, d
    cells = [
        (pr * xr - pi * xi - ar * yr + ai * yi, pr * xi + pi * xr - ar * yi - ai * yr)
        for (xr, xi), (yr, yi) in zip(row, pivot_row)
    ]
    if di:
        norm = dr * dr + di * di
        return [((re * dr + im * di) // norm, (im * dr - re * di) // norm) for re, im in cells]
    return cells if dr == 1 else [(re // dr, im // dr) for re, im in cells]


def _eliminate(rows: list[list[Cell]], width: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form over the first
    ``width`` columns, each row up to a factor of its own; trailing columns
    ride along.  Returns the pivot columns, the ``i``-th in row ``i``.

    A row with 0 in the pivot column is not rewritten: its skipped
    rescalings multiply out to the divisor of its next update, the pivot of
    the step that last wrote it.  A pivot row catches up once, before use."""
    last = [(1, 0)] * len(rows)  # the pivot of the step that last wrote each row
    previous = (1, 0)
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        found = next((r for r in range(top, len(rows)) if rows[r][col] != (0, 0)), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        last[top], last[found] = last[found], last[top]
        if last[top] != previous:
            rows[top] = _combined(previous, rows[top], (0, 0), rows[top], last[top])
        pivot_row, pivot = rows[top], rows[top][col]
        for r, row in enumerate(rows):
            a = row[col]
            if a != (0, 0) and r != top:
                rows[r] = _combined(pivot, row, a, pivot_row, last[r])
                last[r] = pivot
        last[top] = previous = pivot
        pivots.append(col)
    return pivots


def _quotient(x: Cell, y: Cell) -> GaussRational:
    """``x / y`` for Gaussian integers, ``y`` nonzero."""
    (xr, xi), (yr, yi) = x, y
    return _gauss(xr * yr + xi * yi, xi * yr - xr * yi, yr * yr + yi * yi)


def linear_solve(matrix: Sequence[Sequence[GaussRational]], rhs: Sequence[GaussRational]) -> LinearSolveResult:
    """Solve ``matrix @ x = rhs`` exactly; a dimension mismatch is a ValueError."""
    n_rows = len(matrix)
    if n_rows != len(rhs):
        raise ValueError(f"matrix has {n_rows} rows but rhs has {len(rhs)} entries")
    n_cols = len(matrix[0]) if n_rows else 0
    if any(len(r) != n_cols for r in matrix):
        raise ValueError("ragged matrix")
    rows = [_integer_row([*row, b]) for row, b in zip(matrix, rhs)]
    pivots = _eliminate(rows, n_cols)
    # past the pivot rows every row is zero on the first n_cols columns
    if any(row[-1] != (0, 0) for row in rows[len(pivots) :]):
        return LinearSolveResult("inconsistent", None)
    solution = [GAUSS_ZERO] * n_cols
    for row, col in zip(rows, pivots):
        solution[col] = _quotient(row[-1], row[col])
    free = tuple(sorted(set(range(n_cols)) - set(pivots)))
    return LinearSolveResult("parametrized" if free else "unique", tuple(solution), free)


def matrix_rank(matrix: Sequence[Sequence[GaussRational]]) -> int:
    """Exact rank of a matrix over Q(i)."""
    if not matrix:
        return 0
    return len(_eliminate([_integer_row(row) for row in matrix], len(matrix[0])))
