"""Torus model: Moyal products of Fourier modes and the finite fold."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.linalg import matrix_rank
from cpstar.models.torus import (
    PHASE_ONE,
    PHASE_ZERO,
    FourierSum,
    PhaseSum,
    TorusQuotientElement,
    check_quotient_ideal,
    moyal_product,
    torus_quotient,
    torus_quotient_dimension,
)
from cpstar.models.torus import _check_matrix
from cpstar.scalars import GaussRational
from cpstar.serialize import fourier_from_json
from test_torus_oracles import moyal_modes, rotate

SYMPLECTIC = [[0, 1], [-1, 0]]


def F(num, den=1):
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# phase-pair scalars
# ---------------------------------------------------------------------------


def test_phase_sum_normalizes_phases_modulo_one():
    raw = PhaseSum({F(5, 3): F(2), F(-1, 4): F(1)})
    assert raw.terms == {F(2, 3): F(2), F(3, 4): F(1)}
    assert PhaseSum({F(1, 2): 0}).is_zero()


def test_phase_sum_adds_amplitudes_at_phases_equal_modulo_one():
    assert PhaseSum({F(1, 3): 1, F(4, 3): 2}) == PhaseSum.of(3, F(1, 3))
    assert PhaseSum({F(-1, 2): 1, F(1, 2): -1, F(5, 2): F(1, 4)}) == PhaseSum.of(F(1, 4), F(1, 2))
    assert PhaseSum({F(0): 2, F(-3): -2}).is_zero()
    payload = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1", "phase": "1/3"}, {"amp": "2", "phase": "4/3"}]},
        {"k": [0, 1], "terms": [{"amp": "1/2", "phase": "-1"}, {"amp": "-1/2", "phase": "2"}]},
    ]}
    assert fourier_from_json(payload).coeffs == {(1, 0): PhaseSum.of(3, F(1, 3))}


def test_fourier_loader_adds_the_values_of_repeated_modes():
    payload = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1"}]},
        {"k": [0, 1], "terms": [{"amp": "5", "phase": "1/2"}]},
        {"k": [1, 0], "terms": [{"amp": "2"}, {"amp": "1", "phase": "1/3"}]},
        {"k": [0, 1], "terms": [{"amp": "-5", "phase": "1/2"}]},
    ]}
    expected = PhaseSum({F(0): 3, F(1, 3): 1})
    assert fourier_from_json(payload).coeffs == {(1, 0): expected}


def test_fourier_loader_checks_the_length_of_zero_valued_modes():
    short, zero, nonzero = [1], [{"amp": "0"}], [{"amp": "1"}]
    for item in ({"k": short, "terms": []}, {"k": [1, 2, 3], "terms": zero}, {"k": short, "terms": nonzero}):
        payload = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [item]}
        with pytest.raises(ValueError, match="^mode vectors must match the dimension$"):
            fourier_from_json(payload)


def test_phase_sum_addition_merges_and_cancels():
    a = PhaseSum.of(1, F(1, 3))
    b = PhaseSum.of(2, F(1, 3))
    assert (a + b).terms == {F(1, 3): F(3)}
    assert (a - a).is_zero()
    assert a + PHASE_ZERO == a


def test_phase_sum_multiplication_adds_phases():
    a = PhaseSum.of(2, F(1, 3))
    b = PhaseSum.of(3, F(1, 2))
    assert a * b == PhaseSum.of(6, F(5, 6))
    # phases wrap: a third plus two thirds is a whole turn
    assert PhaseSum.of(1, F(1, 3)) * PhaseSum.of(1, F(2, 3)) == PHASE_ONE


def test_phase_sum_rotate_and_pairs():
    mixed = PhaseSum({F(0): F(1), F(1, 2): F(-2)})
    rotated = rotate(mixed, F(1, 2))
    assert rotated == PhaseSum({F(1, 2): F(1), F(0): F(-2)})
    assert mixed.to_pairs() == [(F(1), F(0)), (F(-2), F(1, 2))]


def test_phase_sum_is_immutable_and_hashable():
    a = PhaseSum.of(1, F(1, 5))
    with pytest.raises(AttributeError):
        a.terms = {}
    assert hash(a) == hash(PhaseSum.of(1, F(6, 5)))


# ---------------------------------------------------------------------------
# mode products
# ---------------------------------------------------------------------------


def test_mode_product_phase_through_the_pairing():
    phase, mode = moyal_modes((1, 0), (0, 1), SYMPLECTIC, F(1, 3))
    assert (phase, mode) == (F(1, 3), (1, 1))
    # opposite order pairs through the lower triangle, a sign flip mod one
    phase, mode = moyal_modes((0, 1), (1, 0), SYMPLECTIC, F(1, 3))
    assert (phase, mode) == (F(2, 3), (1, 1))


def test_mode_product_phase_general_modes():
    # pairing (1,1) x (2,-1): 1*(-1)*1 + 1*2*(-1) = -3
    phase, mode = moyal_modes((1, 1), (2, -1), SYMPLECTIC, F(1, 5))
    assert (phase, mode) == (F(2, 5), (3, 0))


matrix_cases = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
        st.booleans(),
        st.integers(-2, 2),
    )
)


def _determinant(rows):
    """The replaced ``torus._determinant``: the determinant of a square int
    matrix by fraction-free elimination (Bareiss 1968)."""
    a = [list(row) for row in rows]
    size, sign, previous = len(a), 1, 1
    for k in range(size - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if a else 1


def _cofactor_determinant(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * entry * _cofactor_determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, entry in enumerate(rows[0])
        if entry
    )


@settings(max_examples=150, deadline=None)
@given(matrix_cases)
def test_integer_determinant_is_nonzero_exactly_at_full_rank(case):
    rows, make_singular, factor = case
    if make_singular and len(rows) > 1:
        # the last row a combination of the first two (or a copy of the first)
        rows[-1] = [u + factor * v for u, v in zip(rows[0], rows[1 % (len(rows) - 1)])]
    determinant = _cofactor_determinant(rows)
    assert _determinant(tuple(map(tuple, rows))) == determinant
    full_rank = matrix_rank([[GaussRational(entry) for entry in row] for row in rows]) == len(rows)
    assert (determinant != 0) == full_rank
    try:
        accepted = _check_matrix(rows, len(rows)) == tuple(map(tuple, rows))
    except ValueError as error:
        assert str(error) == "coefficient matrix must be nondegenerate"
        accepted = False
    assert accepted == (determinant != 0)
    if make_singular and len(rows) > 1:
        assert determinant == 0


def test_fourier_sum_validation():
    with pytest.raises(ValueError):
        FourierSum(0, [], F(1, 2))
    with pytest.raises(ValueError):
        FourierSum(2, [[0, 1]], F(1, 2))
    with pytest.raises(ValueError):
        FourierSum(2, [[1, 1], [1, 1]], F(1, 2))  # degenerate
    with pytest.raises(ValueError):
        FourierSum(2, [[0, Fraction(1, 2)], [-1, 0]], F(1, 2))
    with pytest.raises(ValueError):
        FourierSum(2, SYMPLECTIC, F(1, 2), {(1,): PHASE_ONE})
    assert FourierSum(2, SYMPLECTIC, F(1, 2), {(1, 0): PHASE_ZERO}).is_zero()


def test_unit_mode_is_neutral():
    one = FourierSum.mode(2, SYMPLECTIC, F(2, 7), (0, 0))
    f = FourierSum(
        2,
        SYMPLECTIC,
        F(2, 7),
        {(1, 0): PhaseSum.of(2), (0, -1): PhaseSum.of(1, F(1, 3))},
    )
    assert moyal_product(one, f) == f
    assert moyal_product(f, one) == f


def test_basic_modes_do_not_commute():
    a = FourierSum.mode(2, SYMPLECTIC, F(1, 3), (1, 0))
    b = FourierSum.mode(2, SYMPLECTIC, F(1, 3), (0, 1))
    ab = moyal_product(a, b)
    ba = moyal_product(b, a)
    assert ab != ba
    assert ab.coeffs == {(1, 1): PhaseSum.of(1, F(1, 3))}
    assert ba.coeffs == {(1, 1): PhaseSum.of(1, F(2, 3))}


def _random_sum(rng, parameter):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mode = (rng.randint(-3, 3), rng.randint(-3, 3))
        coeffs[mode] = PhaseSum.of(
            F(rng.randint(-4, 4), rng.randint(1, 3)),
            F(rng.randint(0, 5), 6),
        )
    return FourierSum(2, SYMPLECTIC, parameter, coeffs)


def test_mode_product_is_associative():
    rng = random.Random(7)
    parameter = F(2, 7)
    for _ in range(25):
        f, g, h = (_random_sum(rng, parameter) for _ in range(3))
        assert moyal_product(moyal_product(f, g), h) == moyal_product(
            f, moyal_product(g, h)
        )


def test_mismatched_algebras_rejected():
    a = FourierSum.mode(2, SYMPLECTIC, F(1, 3), (1, 0))
    b = FourierSum.mode(2, SYMPLECTIC, F(1, 4), (1, 0))
    with pytest.raises(ValueError):
        moyal_product(a, b)


# ---------------------------------------------------------------------------
# finite fold
# ---------------------------------------------------------------------------


def test_fold_requires_matching_parameter():
    f = FourierSum.mode(2, SYMPLECTIC, F(1, 3), (1, 0))
    assert torus_quotient(f, 3).coeffs == {(1, 0): PHASE_ONE}
    with pytest.raises(ValueError):
        torus_quotient(f, 2)
    with pytest.raises(ValueError):
        torus_quotient(f, 0)


def test_fold_requires_primitive_matrix():
    doubled = [[0, 2], [-2, 0]]
    f = FourierSum.mode(2, doubled, F(1, 3), (1, 0))
    with pytest.raises(ValueError):
        torus_quotient(f, 3)


def test_fold_merges_congruent_modes():
    K = 3
    f = FourierSum(
        2,
        SYMPLECTIC,
        F(1, K),
        {(1, 0): PhaseSum.of(2), (4, 0): PhaseSum.of(5), (1, -3): PhaseSum.of(-4)},
    )
    folded = torus_quotient(f, K)
    assert folded.coeffs == {(1, 0): PhaseSum.of(3)}
    cancel = FourierSum(
        2, SYMPLECTIC, F(1, K), {(2, 1): PhaseSum.of(1), (-1, 1): PhaseSum.of(-1)}
    )
    assert torus_quotient(cancel, K).is_zero()


def test_fold_respects_the_product():
    rng = random.Random(11)
    K = 3
    for _ in range(25):
        f = _random_sum(rng, F(1, K))
        g = _random_sum(rng, F(1, K))
        assert torus_quotient(moyal_product(f, g), K) == torus_quotient(f, K).product(
            torus_quotient(g, K)
        )


def test_folded_unit_and_associativity():
    K = 4
    one = torus_quotient(FourierSum.mode(2, SYMPLECTIC, F(1, K), (0, 0)), K)
    rng = random.Random(3)
    elems = [torus_quotient(_random_sum(rng, F(1, K)), K) for _ in range(3)]
    for e in elems:
        assert one.product(e) == e
        assert e.product(one) == e
    a, b, c = elems
    assert a.product(b).product(c) == a.product(b.product(c))


def test_congruent_mode_differences_annihilate_products():
    other = FourierSum(
        2,
        SYMPLECTIC,
        F(1, 3),
        {(1, 2): PhaseSum.of(2, F(1, 6)), (-1, 0): PhaseSum.of(1)},
    )
    pairs = [((0, 0), (1, 0)), ((1, 2), (0, 1)), ((-2, 1), (1, -1))]
    assert check_quotient_ideal(pairs, other, 3)


def test_fold_class_count():
    assert [torus_quotient_dimension(2, K) for K in (1, 2, 3, 4)] == [1, 4, 9, 16]
    assert torus_quotient_dimension(4, 2) == 16


def test_quotient_element_validation():
    with pytest.raises(ValueError):
        TorusQuotientElement(2, SYMPLECTIC, 0)
    elem = TorusQuotientElement(2, SYMPLECTIC, 2, {(3, 5): PhaseSum.of(1)})
    assert elem.coeffs == {(1, 1): PHASE_ONE}
