"""Exact Gaussian elimination over the complex rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpstar.linalg import linear_solve, matrix_rank
from cpstar.scalars import GAUSS_ZERO, GaussRational

from test_linalg_oracles import nullspace


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def _mat(rows):
    return [[g(x) if not isinstance(x, GaussRational) else x for x in row] for row in rows]


def test_rank_examples():
    assert matrix_rank([]) == 0
    assert matrix_rank(_mat([[0, 0], [0, 0]])) == 0
    assert matrix_rank(_mat([[1, 2], [2, 4]])) == 1
    assert matrix_rank(_mat([[1, 2], [3, 4]])) == 2
    assert matrix_rank(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert matrix_rank([[1, Fraction(1, 2)], [2, 1]]) == 1


def test_rank_with_complex_entries():
    i = GaussRational(0, 1)
    # second row is i times the first: rank one
    assert matrix_rank([[g(1), i], [i, g(-1)]]) == 1
    assert matrix_rank([[g(1), i], [i, g(1)]]) == 2


def test_unique_solve():
    result = linear_solve(_mat([[2, 1], [1, -1]]), [g(5), g(1)])
    assert result.kind == "unique"
    assert result.solution == (g(2), g(1))
    assert result.free_columns == ()
    assert result.kind != "inconsistent"


def test_inconsistent_solve():
    result = linear_solve(_mat([[1, 1], [1, 1]]), [g(1), g(2)])
    assert result.kind == "inconsistent"
    assert result.solution is None


def test_parametrized_solve_satisfies_system():
    matrix = _mat([[1, 2, 3], [2, 4, 6]])
    rhs = [g(6), g(12)]
    result = linear_solve(matrix, rhs)
    assert result.kind == "parametrized"
    assert result.free_columns
    for row, b in zip(matrix, rhs):
        total = GAUSS_ZERO
        for a, x in zip(row, result.solution):
            total = total + a * x
        assert total == b


def test_solve_dimension_errors():
    with pytest.raises(ValueError):
        linear_solve(_mat([[1, 2]]), [g(1), g(2)])
    with pytest.raises(ValueError):
        linear_solve([[g(1), g(2)], [g(3)]], [g(1), g(2)])


def test_nullspace_annihilates():
    matrix = _mat([[1, 2, 3], [4, 5, 6]])
    basis = nullspace(matrix)
    assert len(basis) == 1
    for vec in basis:
        for row in matrix:
            total = GAUSS_ZERO
            for a, x in zip(row, vec):
                total = total + a * x
            assert total == GAUSS_ZERO


def test_nullspace_of_full_rank_matrix_is_empty():
    assert nullspace(_mat([[1, 0], [0, 1]])) == []
    assert nullspace([]) == []


small = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_plus_nullity(rows):
    matrix = _mat(rows)
    assert matrix_rank(matrix) + len(nullspace(matrix)) == 3


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    matrix = _mat(rows)
    for vec in nullspace(matrix):
        assert any(vec)
        for row in matrix:
            total = GAUSS_ZERO
            for a, x in zip(row, vec):
                total = total + a * x
            assert total == GAUSS_ZERO
