"""Exact linear algebra over the Gaussian rationals.

Plain Gaussian elimination with exact pivoting: any nonzero pivot is a valid
pivot, so no numerical considerations apply.  Used for rank/spanning checks
on quotient images and for commutant computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational

__all__ = ["LinearSolveResult", "linear_solve", "matrix_rank", "nullspace"]


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

    @property
    def solvable(self) -> bool:
        return self.kind != "inconsistent"


def _echelonize(rows: list[list[GaussRational]], width: int) -> list[int]:
    """Reduce ``rows`` (in place) to reduced row echelon form over the first
    ``width`` columns; trailing columns ride along.  Returns pivot columns."""
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot_row = None
        for r in range(row, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        inv = GAUSS_ONE / rows[row][col]
        rows[row] = [c * inv for c in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    return pivots


def linear_solve(
    matrix: Sequence[Sequence[GaussRational]], rhs: Sequence[GaussRational]
) -> LinearSolveResult:
    """Solve ``matrix @ x = rhs`` exactly.

    Raises ``ValueError`` on a dimension mismatch.  Never touches floating
    point; all arithmetic stays in Q(i).
    """
    n_rows = len(matrix)
    if n_rows != len(rhs):
        raise ValueError(f"matrix has {n_rows} rows but rhs has {len(rhs)} entries")
    n_cols = len(matrix[0]) if n_rows else 0
    for r in matrix:
        if len(r) != n_cols:
            raise ValueError("ragged matrix")
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _echelonize(rows, n_cols)
    pivot_set = set(pivots)
    for r in rows:
        if r[-1] and not any(r[c] for c in range(n_cols)):
            return LinearSolveResult("inconsistent", None)
    solution = [GAUSS_ZERO] * n_cols
    for row_index, col in enumerate(pivots):
        solution[col] = rows[row_index][-1]
    free = tuple(c for c in range(n_cols) if c not in pivot_set)
    kind = "unique" if not free else "parametrized"
    return LinearSolveResult(kind, tuple(solution), free)


def matrix_rank(matrix: Sequence[Sequence[GaussRational]]) -> int:
    """Exact rank of a matrix over Q(i)."""
    if not matrix:
        return 0
    rows = [list(row) for row in matrix]
    width = len(rows[0])
    return len(_echelonize(rows, width))


def nullspace(matrix: Sequence[Sequence[GaussRational]]) -> list[tuple[GaussRational, ...]]:
    """Exact basis of the right nullspace of a matrix over Q(i)."""
    if not matrix:
        return []
    rows = [list(row) for row in matrix]
    n_cols = len(rows[0])
    pivots = _echelonize(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivot_set):
        vec = [GAUSS_ZERO] * n_cols
        vec[free] = GAUSS_ONE
        for row_index, col in enumerate(pivots):
            vec[col] = -rows[row_index][free]
        basis.append(tuple(vec))
    return basis
