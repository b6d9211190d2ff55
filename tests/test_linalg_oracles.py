"""The fraction-free elimination against the replaced Q(i) Gauss-Jordan.

``_echelonize`` and the ``matrix_rank``, ``nullspace`` and ``linear_solve``
built on it are the code that ``linalg._eliminate`` replaced: plain
Gauss-Jordan on ``GaussRational`` entries, each pivot row divided by its
pivot.  Reduced row echelon forms are unique, so the rank, the nullspace
basis and the solution with free variables at zero must agree exactly.
Every division of the new elimination is also checked to be exact in Z[i].
The package needs no nullspace; ``nullspace`` here reads one off
``linalg._eliminate``, for these checks and ``test_linalg.py``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar import linalg
from cpstar.linalg import LinearSolveResult, linear_solve, matrix_rank
from cpstar.scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational


def nullspace(matrix):
    """Exact basis of the right nullspace of a matrix over Q(i), from the
    reduced rows of ``linalg._eliminate``."""
    if not matrix:
        return []
    rows = [linalg._integer_row(row) for row in matrix]
    n_cols = len(rows[0])
    pivots = linalg._eliminate(rows, n_cols)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [GAUSS_ZERO] * n_cols
        vec[free] = GAUSS_ONE
        for row, col in zip(rows, pivots):
            vec[col] = -linalg._quotient(row[free], row[col])
        basis.append(tuple(vec))
    return basis


def _echelonize(rows, width):
    """The replaced ``linalg._echelonize``: reduce ``rows`` (in place) to
    reduced row echelon form over the first ``width`` columns; trailing
    columns ride along.  Returns pivot columns."""
    pivots = []
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


def linear_solve_oracle(matrix, rhs):
    n_cols = len(matrix[0]) if matrix else 0
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


def matrix_rank_oracle(matrix):
    if not matrix:
        return 0
    rows = [list(row) for row in matrix]
    return len(_echelonize(rows, len(rows[0])))


def nullspace_oracle(matrix):
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


_combined = linalg._combined


def _checked_combined(p, row, a, pivot_row, d):
    """``linalg._combined``, asserting that every quotient by ``d`` is exact."""
    dr, di = d
    norm = dr * dr + di * di
    for re, im in _combined(p, row, a, pivot_row, (1, 0)):
        assert (re * dr + im * di) % norm == 0 and (im * dr - re * di) % norm == 0, (re, im, d)
    return _combined(p, row, a, pivot_row, d)


@contextmanager
def _exact_divisions():
    with mock.patch.object(linalg, "_combined", _checked_combined):
        yield


def _assert_matches_oracles(matrix, rhs):
    with _exact_divisions():
        rank = matrix_rank(matrix)
        basis = nullspace(matrix)
        solved = linear_solve(matrix, rhs)
    assert rank == matrix_rank_oracle(matrix)
    assert basis == nullspace_oracle(matrix)
    assert solved == linear_solve_oracle(matrix, rhs)
    assert rank + len(basis) == len(matrix[0])


parts = st.tuples(st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 5, 7]))
scalars = st.builds(
    lambda re, im: GaussRational(Fraction(*re), Fraction(*im)),
    parts,
    st.one_of(st.just((0, 1)), parts),
)


@st.composite
def systems(draw):
    """A matrix of 1 to 9 rows and columns with 0, 30, 60 or 85 percent zero
    entries, half of them with a last row that depends on two others, and a
    right-hand side, consistent half of the time."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    zeros = draw(st.sampled_from([0, 30, 60, 85]))

    def entry():
        return GAUSS_ZERO if draw(st.integers(0, 99)) < zeros else draw(scalars)

    matrix = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and draw(st.booleans()):
        first, second = draw(st.integers(0, n_rows - 2)), draw(st.integers(0, n_rows - 2))
        u, v = draw(scalars), draw(scalars)
        matrix[-1] = [u * x + v * y for x, y in zip(matrix[first], matrix[second])]
    if draw(st.booleans()):
        point = [entry() for _ in range(n_cols)]
        rhs = [sum((a * x for a, x in zip(row, point)), GAUSS_ZERO) for row in matrix]
    else:
        rhs = [entry() for _ in range(n_rows)]
    return matrix, rhs


@settings(max_examples=400, deadline=None)
@given(systems())
def test_rank_nullspace_and_solve_match_the_q_i_elimination(system):
    _assert_matches_oracles(*system)


def test_dense_matrix_matches_the_q_i_elimination():
    rng = random.Random(19)

    def scalar():
        return GaussRational(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7])), rng.randint(-9, 9))

    matrix = [[scalar() for _ in range(20)] for _ in range(20)]
    factor = scalar()
    matrix[-1] = [x + factor * y for x, y in zip(matrix[0], matrix[7])]
    rhs = [scalar() for _ in range(20)]
    _assert_matches_oracles(matrix, rhs)
    assert matrix_rank(matrix) == 19


def test_int_rows_reach_full_rank_exactly_when_nonsingular():
    assert len(linalg._eliminate([[(2, 0), (1, 0)], [(4, 0), (2, 0)]], 2)) == 1
    assert len(linalg._eliminate([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]], 2)) == 2
    assert linalg._eliminate([], 3) == []
