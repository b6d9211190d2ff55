"""The shared torus mode-sum core against the loops it replaced.

``FourierSum`` and ``TorusQuotientElement`` build every result through one
builder (fold each mode, merge equal modes, drop zeros) and run their
products through one generator of mode pairs.  The oracles here are the
code they replaced, kept on purpose: the ``moyal_product`` loop, the
``TorusQuotientElement`` fold and its ``product``, ``+`` and ``-``, each
written out on plain coefficient dicts.  Seeded random sums at parameter
1/K, with cancelling pairs and modes that collide under the fold, must give
the same coefficients; equality, hashing, immutability and the mismatch
messages must behave as before.
"""

import random
from fractions import Fraction

import pytest

from cpstar.models.torus import (
    PHASE_ONE,
    PHASE_ZERO,
    FourierSum,
    PhaseSum,
    TorusQuotientElement,
    check_quotient_ideal,
    moyal_modes,
    moyal_product,
    torus_quotient,
)
from cpstar.randgen import random_fourier

SYMPLECTIC = [[0, 1], [-1, 0]]
BLOCK = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 1]]


def moyal_product_oracle(left, right):
    """The replaced ``moyal_product`` loop, on the coefficient dicts."""
    out = {}
    for k, a in left.coeffs.items():
        for k2, b in right.coeffs.items():
            phase, mode = moyal_modes(k, k2, left.matrix, left.parameter)
            value = (a * b).rotate(phase)
            merged = out.get(mode, PHASE_ZERO) + value
            if merged:
                out[mode] = merged
            elif mode in out:
                del out[mode]
    return out


def fold_oracle(coeffs, K):
    """The replaced ``TorusQuotientElement`` fill: fold modulo K and merge."""
    cleaned = {}
    for mode, value in coeffs.items():
        folded = tuple(c % K for c in mode)
        if value:
            merged = cleaned.get(folded, PHASE_ZERO) + value
            if merged:
                cleaned[folded] = merged
            elif folded in cleaned:
                del cleaned[folded]
    return cleaned


def sum_oracle(left, right, sign):
    """The replaced ``+`` (sign 1) and ``-`` (sign -1) of either class,
    before the fold or the dropping of zeros."""
    out = dict(left.coeffs)
    for mode, value in right.coeffs.items():
        out[mode] = out.get(mode, PHASE_ZERO) + value if sign > 0 else out.get(mode, PHASE_ZERO) - value
    return out


def quotient_product_oracle(left, right):
    """The replaced ``TorusQuotientElement.product`` loop."""
    parameter = Fraction(1, left.K)
    out = {}
    for k, a in left.coeffs.items():
        for k2, b in right.coeffs.items():
            phase, mode = moyal_modes(k, k2, left.matrix, parameter)
            folded = tuple(c % left.K for c in mode)
            value = (a * b).rotate(phase)
            merged = out.get(folded, PHASE_ZERO) + value
            if merged:
                out[folded] = merged
            elif folded in out:
                del out[folded]
    return fold_oracle(out, left.K)


def _nonzero(coeffs):
    return {mode: value for mode, value in coeffs.items() if value}


def _cancelling_pair(dim, matrix, K):
    """T_a + T_b against T_b - c T_a, with c chosen so that the two products
    landing on the mode a + b cancel inside the product loop."""
    a, b = (1,) + (0,) * (dim - 1), (0, 1) + (0,) * (dim - 2)
    parameter = Fraction(1, K)
    forward, _ = moyal_modes(a, b, matrix, parameter)
    backward, _ = moyal_modes(b, a, matrix, parameter)
    left = FourierSum(dim, matrix, parameter, {a: PHASE_ONE, b: PHASE_ONE})
    right = FourierSum(dim, matrix, parameter, {b: PHASE_ONE, a: PhaseSum.of(-1, forward - backward)})
    return left, right


def _sums(seed, dim, matrix, K):
    """Seeded sums at parameter 1/K: random ones with small and wide mode
    spans, the negative of the first, a difference and a sum of two
    K-congruent modes (which fold to zero and to one class) and a pair
    whose product cancels on one mode."""
    rng = random.Random(seed)
    parameter = Fraction(1, K)
    sums = [random_fourier(rng, dim, matrix, parameter, modes=rng.randint(0, 6), span=span) for span in (1, 1, 3, 5)]
    sums.append(sums[0].scale(-1))
    k = tuple(rng.randint(-2, 2) for _ in range(dim))
    shifted = tuple(c + K * rng.choice((-1, 1)) for c in k)
    amp = PhaseSum.of(rng.randint(1, 3), Fraction(rng.randint(0, 11), 12))
    sums.append(FourierSum(dim, matrix, parameter, {k: amp, shifted: -amp}))
    sums.append(FourierSum(dim, matrix, parameter, {k: amp, shifted: amp}))
    sums.extend(_cancelling_pair(dim, matrix, K))
    return sums


CASES = [(seed, 2, SYMPLECTIC, K) for seed in range(4) for K in (2, 3, 4)] + [
    (seed, 4, BLOCK, K) for seed in range(2) for K in (2, 3)
]


@pytest.mark.parametrize("seed, dim, matrix, K", CASES)
def test_fourier_sums_match_the_replaced_loops(seed, dim, matrix, K):
    sums = _sums(seed, dim, matrix, K)
    for left in sums:
        for right in sums:
            product = moyal_product(left, right)
            assert product.coeffs == moyal_product_oracle(left, right)
            assert (left + right).coeffs == _nonzero(sum_oracle(left, right, 1))
            assert (left - right).coeffs == _nonzero(sum_oracle(left, right, -1))
            assert all(product.coeffs.values())
    assert (sums[0] + sums[4]).is_zero() and (sums[0] - sums[0]).is_zero()
    left, right = sums[-2:]
    middle = tuple(u + v for u, v in zip(*sorted(left.coeffs)))
    assert middle not in moyal_product(left, right).coeffs


@pytest.mark.parametrize("seed, dim, matrix, K", CASES)
def test_folded_sums_match_the_replaced_fold(seed, dim, matrix, K):
    sums = _sums(seed, dim, matrix, K)
    folded = [torus_quotient(f, K) for f in sums]
    for f, q in zip(sums, folded):
        assert q.coeffs == fold_oracle(f.coeffs, K)
        assert q == TorusQuotientElement(dim, matrix, K, f.coeffs)
    assert folded[5].is_zero() and len(sums[5].coeffs) == 2
    amp = next(iter(sums[6].coeffs.values()))
    assert len(sums[6].coeffs) == 2 and list(folded[6].coeffs.values()) == [amp + amp]
    for left in folded:
        for right in folded:
            assert left.product(right).coeffs == quotient_product_oracle(left, right)
            assert (left + right).coeffs == fold_oracle(sum_oracle(left, right, 1), K)
            assert (left - right).coeffs == fold_oracle(sum_oracle(left, right, -1), K)


def test_the_mode_difference_of_the_ideal_check():
    K = 3
    other = FourierSum(2, SYMPLECTIC, Fraction(1, K), {(1, 2): PhaseSum.of(2, Fraction(1, 6)), (-1, 0): PHASE_ONE})
    # a zero shift makes the difference zero, as the replaced subtraction did
    assert check_quotient_ideal([((1, 1), (0, 0)), ((0, 0), (1, -1))], other, K)
    with pytest.raises(ValueError, match="mode vectors must match the dimension"):
        check_quotient_ideal([((1,), (0, 0))], other, K)


def test_equality_hashing_and_messages_are_unchanged():
    parameter = Fraction(1, 3)
    f = FourierSum(2, SYMPLECTIC, parameter, {(1, 0): PhaseSum.of(2, Fraction(1, 4)), (0, 2): PHASE_ONE})
    g = FourierSum(2, [(0, 1), (-1, 0)], parameter, {(0, 2): PHASE_ONE, (1, 0): PhaseSum.of(2, Fraction(1, 4))})
    assert f == g and hash(f) == hash(g)
    assert hash(f) == hash((2, ((0, 1), (-1, 0)), parameter, frozenset(f.coeffs.items())))
    assert f != f.scale(2) and f != FourierSum(2, SYMPLECTIC, Fraction(1, 4), f.coeffs)
    q = torus_quotient(f, 3)
    r = TorusQuotientElement(2, SYMPLECTIC, 3, {(4, 3): PhaseSum.of(2, Fraction(1, 4)), (3, 5): PHASE_ONE})
    assert q == r and hash(q) == hash(r)
    assert hash(q) == hash((2, ((0, 1), (-1, 0)), 3, frozenset(q.coeffs.items())))
    # a quotient element never equals a Fourier sum, even with the same data
    assert q != FourierSum(2, SYMPLECTIC, 3, q.coeffs) and f != q
    with pytest.raises(AttributeError, match="^FourierSum is immutable$"):
        f.coeffs = {}
    with pytest.raises(AttributeError, match="^TorusQuotientElement is immutable$"):
        q.K = 4
    other = FourierSum(2, SYMPLECTIC, Fraction(1, 4), {(1, 0): PHASE_ONE})
    for operation in (f.__add__, f.__sub__, lambda x: moyal_product(f, x)):
        with pytest.raises(ValueError, match="^mismatched torus algebras$"):
            operation(other)
    wider = torus_quotient(FourierSum(2, SYMPLECTIC, Fraction(1, 4), {(1, 0): PHASE_ONE}), 4)
    for operation in (q.__add__, q.__sub__, q.product):
        with pytest.raises(ValueError, match="^mismatched torus quotients$"):
            operation(wider)
    assert repr(f) == "FourierSum(dim=2, parameter=1/3, modes=[(0, 2), (1, 0)])"
    assert repr(q) == "TorusQuotientElement(dim=2, K=3, classes=[(0, 2), (1, 0)])"


def test_both_constructors_read_modes_alike():
    for build in (
        lambda coeffs: FourierSum(2, SYMPLECTIC, Fraction(1, 3), coeffs),
        lambda coeffs: TorusQuotientElement(2, SYMPLECTIC, 3, coeffs),
    ):
        with pytest.raises(ValueError, match="^mode vectors must match the dimension$"):
            build({(1, 0, 7): PHASE_ONE})
        assert build({(1, 0): 2, (0, 1): 0}).coeffs == {(1, 0): PhaseSum.of(2)}
