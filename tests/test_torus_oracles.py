"""The torus scalars and the shared mode-sum core against the code they replaced.

``FourierSum`` and ``TorusQuotientElement`` build every result through one
builder (fold each mode, merge equal modes, drop zeros) and run their
products through one generator of mode pairs.  The oracles here are the
code they replaced, kept on purpose: the ``moyal_product`` loop, the
``TorusQuotientElement`` fold and its ``product``, ``+`` and ``-``, each
written out on plain coefficient dicts.  Seeded random sums at parameter
1/K, with cancelling pairs and modes that collide under the fold, must give
the same coefficients; equality, hashing, immutability and the mismatch
messages must behave as before.

``PhaseSum`` stores integer residues over one modulus and amplitude
numerators over one denominator.  Its oracle is the ``Fraction``-dict class
it replaced, ``PhaseSumOracle``, with the replaced ``fourier_from_json`` and
``"coeffs"`` writer on it.  Random phase sums, with negative phases, phases
of one or more, mixed denominators, phases that sum to a whole turn and
amplitudes that cancel, must give the same value from every operation, the
same canonical form (each value equals the new class built from the
oracle's terms) and the same bytes through the JSON loader and dumper.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.models.torus import (
    PHASE_ONE,
    FourierSum,
    PhaseSum,
    TorusQuotientElement,
    check_quotient_ideal,
    moyal_product,
    torus_quotient,
)
from cpstar.randgen import random_fourier
from cpstar.scalars import parse_rational
from cpstar.serialize import canonical_dumps, fourier_from_json, fourier_to_json

from test_scalar_oracles import format_rational

SYMPLECTIC = [[0, 1], [-1, 0]]
BLOCK = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 1]]


def rotate(value, phase):
    """``value`` times the unit phase ``exp(2 pi i phase)``: the oracle's own
    ``rotate`` on a ``PhaseSumOracle``, a product with ``PhaseSum.of(1,
    phase)`` on a ``PhaseSum``."""
    if isinstance(value, PhaseSumOracle):
        return value.rotate(phase)
    return value * PhaseSum.of(1, phase)


def moyal_modes(k, k_prime, matrix, parameter):
    """Phase and combined mode of the product of two basis modes: the
    parameter times the pairing ``k^T M k'``, summed over every matrix cell,
    reduced modulo one.  ``moyal_product`` reads the same pairing as an int
    residue over the parameter's denominator."""
    pairing = sum(a * cell * b for a, row in zip(k, matrix) for cell, b in zip(row, k_prime))
    return (Fraction(parameter) * pairing) % 1, tuple(u + v for u, v in zip(k, k_prime))


class PhaseSumOracle:
    """The replaced ``PhaseSum``: a dict from ``Fraction`` phases in [0, 1)
    to nonzero ``Fraction`` amplitudes, rebuilt through ``Fraction`` on
    every operation.  Amplitudes at phases equal modulo one add up."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        summed = {}
        for phase, amp in (terms or {}).items():
            phase = Fraction(phase) % 1
            summed[phase] = summed.get(phase, Fraction(0)) + Fraction(amp)
        object.__setattr__(self, "terms", {phase: amp for phase, amp in summed.items() if amp})

    def __setattr__(self, name, value):
        raise AttributeError("PhaseSum is immutable")

    @classmethod
    def of(cls, amplitude, phase=0):
        return cls({Fraction(phase): Fraction(amplitude)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for phase, amp in other.terms.items():
            out[phase] = out.get(phase, Fraction(0)) + amp
        return PhaseSumOracle(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PhaseSumOracle({phase: -amp for phase, amp in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for p1, a1 in self.terms.items():
            for p2, a2 in other.terms.items():
                phase = (p1 + p2) % 1
                out[phase] = out.get(phase, Fraction(0)) + a1 * a2
        return PhaseSumOracle(out)

    def rotate(self, phase):
        shift = Fraction(phase)
        return PhaseSumOracle({(p + shift) % 1: a for p, a in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PhaseSumOracle):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_pairs(self):
        return [(amp, phase) for phase, amp in sorted(self.terms.items())]


def fourier_from_json_oracle(data):
    """The replaced loader, on valid payloads: ``(dim, matrix, parameter,
    coeffs)`` with ``PhaseSumOracle`` values, in which amplitudes at phases
    equal modulo one add up, and so do the values of repeated modes."""
    coeffs = {}
    for item in data.get("coeffs", []):
        merged = {}
        for term in item.get("terms", []):
            phase = parse_rational(term.get("phase", "0"))
            merged[phase] = merged.get(phase, Fraction(0)) + parse_rational(term["amp"])
        mode = tuple(item["k"])
        coeffs[mode] = coeffs.get(mode, PhaseSumOracle()) + PhaseSumOracle(merged)
    return data["dim"], data["Lambda"], parse_rational(data["lambda"]), _nonzero(coeffs)


def fourier_to_json_oracle(dim, matrix, parameter, coeffs):
    """The replaced dumper, with the replaced ``"coeffs"`` writer."""
    items = [
        {
            "k": list(mode),
            "terms": [
                {"amp": format_rational(amp), "phase": format_rational(phase)}
                for amp, phase in coeffs[mode].to_pairs()
            ],
        }
        for mode in sorted(coeffs)
    ]
    return {"dim": dim, "Lambda": [list(row) for row in matrix], "lambda": format_rational(parameter), "coeffs": items}


def _same(value, oracle):
    """``value`` is the oracle's value in canonical form, read every way."""
    assert value == PhaseSum(oracle.terms)
    assert value.terms == oracle.terms
    assert value.to_pairs() == oracle.to_pairs()
    assert bool(value) == bool(oracle) and value.is_zero() == (not oracle)


def _oracle_coeffs(coeffs):
    return {mode: PhaseSumOracle(value.terms) for mode, value in coeffs.items()}


def _canonical(coeffs):
    """Oracle coefficients as the new class builds them from plain terms."""
    return {mode: PhaseSum(value.terms) for mode, value in coeffs.items()}


def moyal_product_oracle(left, right):
    """The replaced ``moyal_product`` loop, on the coefficient dicts."""
    out = {}
    for k, a in left.coeffs.items():
        for k2, b in right.coeffs.items():
            phase, mode = moyal_modes(k, k2, left.matrix, left.parameter)
            value = rotate(a * b, phase)
            merged = out.get(mode, type(value)()) + value
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
            merged = cleaned.get(folded, type(value)()) + value
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
        out[mode] = out.get(mode, type(value)()) + value if sign > 0 else out.get(mode, type(value)()) - value
    return out


def quotient_product_oracle(left, right):
    """The replaced ``TorusQuotientElement.product`` loop."""
    parameter = Fraction(1, left.K)
    out = {}
    for k, a in left.coeffs.items():
        for k2, b in right.coeffs.items():
            phase, mode = moyal_modes(k, k2, left.matrix, parameter)
            folded = tuple(c % left.K for c in mode)
            value = rotate(a * b, phase)
            merged = out.get(folded, type(value)()) + value
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


# -- the integer phase sum against the Fraction-dict class it replaced --

phases = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 12]))
amplitudes = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 6]))
term_maps = st.dictionaries(phases, amplitudes, max_size=4)


@settings(max_examples=200, deadline=None)
@given(term_maps, term_maps, phases)
def test_phase_sum_arithmetic_matches_the_fraction_oracle(left, right, shift):
    a, b = PhaseSum(left), PhaseSum(right)
    oa, ob = PhaseSumOracle(left), PhaseSumOracle(right)
    _same(a, oa)
    _same(a + b, oa + ob)
    _same(a - b, oa - ob)
    _same(a + b - b, oa + ob - ob)
    _same(-a, -oa)
    _same(a * b, oa * ob)
    _same(a * b - b * a, oa * ob - ob * oa)
    _same(rotate(a, shift), oa.rotate(shift))
    _same(rotate(a, shift) * rotate(b, -shift), oa.rotate(shift) * ob.rotate(-shift))
    _same(PhaseSum.of(shift, shift) * a, PhaseSumOracle.of(shift, shift) * oa)


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, phases)
def test_equality_and_hashing_follow_the_fraction_oracle(left, right, shift):
    def values(cls):
        a, b = cls(left), cls(right)
        return [a, b, a * b, b * a, a + b - b, rotate(rotate(a, shift), -shift), (a - a) * b, a * cls.of(1, shift)]

    pairs = list(zip(values(PhaseSum), values(PhaseSumOracle)))
    for value, oracle in pairs:
        for other, other_oracle in pairs:
            assert (value == other) == (oracle == other_oracle)
            if value == other:
                assert hash(value) == hash(other)


F = Fraction


@pytest.mark.parametrize(
    "build, form",
    [
        # phases that sum to a whole turn collapse the modulus to 1
        (lambda P: P.of(1, F(1, 3)) * P.of(1, F(2, 3)), (1, 1, {0: 1})),
        (lambda P: P.of(2, F(1, 4)) * P.of(1, F(3, 4)), (1, 1, {0: 2})),
        (lambda P: rotate(P.of(1, F(1, 4)), F(3, 4)), (1, 1, {0: 1})),
        (lambda P: P({F(1, 4): 1, F(1, 2): 1}) - P.of(1, F(1, 4)), (2, 1, {1: 1})),
        (lambda P: P({F(1, 6): 1, F(1, 2): 1}) * P.of(1, F(1, 2)), (3, 1, {0: 1, 2: 1})),
        # negative phases and phases of one or more
        (lambda P: P({F(-1, 4): 2, F(7, 3): F(1, 2)}), (12, 2, {9: 4, 4: 1})),
        (lambda P: P.of(3, -5), (1, 1, {0: 3})),
        (lambda P: rotate(P.of(1, F(5, 2)), F(-7, 3)), (6, 1, {1: 1})),
        # amplitudes that cancel to zero, and a denominator that divides out
        (lambda P: P.of(F(1, 2), F(1, 3)) + P.of(F(-1, 2), F(4, 3)), (1, 1, {})),
        (lambda P: P({F(1, 6): F(1, 2), F(1, 2): 1}) - P.of(F(1, 2), F(1, 6)), (2, 1, {1: 1})),
        (lambda P: P.of(F(1, 2), F(1, 5)) * P.of(2, F(-1, 5)), (1, 1, {0: 1})),
        (lambda P: P.of(F(3, 4)) + P.of(F(1, 4)), (1, 1, {0: 1})),
        # mixed denominators
        (lambda P: P.of(F(1, 6), F(1, 2)) + P.of(F(1, 3), F(1, 2)) + P.of(F(1, 4), F(1, 3)), (6, 4, {3: 2, 2: 1})),
        (lambda P: P.of(F(2, 3), F(1, 4)) * P.of(F(3, 5), F(1, 6)), (12, 5, {5: 2})),
    ],
)
def test_named_cases_have_the_canonical_form_and_the_oracle_value(build, form):
    value = build(PhaseSum)
    _same(value, build(PhaseSumOracle))
    assert (value.mod, value.den, value.amps) == form


modes = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
mode_maps = st.dictionaries(modes, term_maps, max_size=4)
matrices = st.sampled_from([((0, 1), (-1, 0)), ((1, 2), (-1, 3)), ((2, -1), (1, 0))])


@settings(max_examples=100, deadline=None)
@given(mode_maps, mode_maps, matrices, st.sampled_from([1, 2, 3, 4, 6]), st.integers(-3, 3))
def test_mode_products_and_folds_match_the_fraction_oracle(left, right, matrix, K, p):
    def both(terms, parameter):
        func = FourierSum(2, matrix, parameter, {mode: PhaseSum(t) for mode, t in terms.items()})
        oracle = {mode: PhaseSumOracle(t) for mode, t in terms.items()}
        return func, SimpleNamespace(coeffs=_nonzero(oracle), matrix=func.matrix, parameter=parameter, K=K)

    (f, of), (g, og) = both(left, Fraction(p, K)), both(right, Fraction(p, K))
    assert f.coeffs == _canonical(of.coeffs)
    assert moyal_product(f, g).coeffs == _canonical(moyal_product_oracle(of, og))
    (f, of), (g, og) = both(left, Fraction(1, K)), both(right, Fraction(1, K))
    qf, qg = torus_quotient(f, K), torus_quotient(g, K)
    of.coeffs, og.coeffs = fold_oracle(of.coeffs, K), fold_oracle(og.coeffs, K)
    assert qf.coeffs == _canonical(of.coeffs) and qg.coeffs == _canonical(og.coeffs)
    assert qf.product(qg).coeffs == _canonical(quotient_product_oracle(of, og))


rational_texts = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 12)),
    st.integers(-5, 5).map(str),
)
term_items = st.one_of(
    st.fixed_dictionaries({"amp": rational_texts, "phase": rational_texts}),
    st.fixed_dictionaries({"amp": rational_texts}),
)
payloads = st.builds(
    lambda items, parameter: {
        "dim": 2,
        "Lambda": [[0, 1], [-1, 0]],
        "lambda": parameter,
        "coeffs": [{"k": list(mode), "terms": terms} for mode, terms in items],
    },
    st.lists(st.tuples(modes, st.lists(term_items, max_size=5)), max_size=4),
    st.sampled_from(["1/3", "2/6", "-3/4", "5"]),
)


@settings(max_examples=150, deadline=None)
@given(payloads)
def test_fourier_json_round_trip_matches_the_fraction_oracle(data):
    func = fourier_from_json(data)
    dim, matrix, parameter, coeffs = fourier_from_json_oracle(data)
    assert func.coeffs == _canonical(coeffs)
    assert canonical_dumps(fourier_to_json(func)) == canonical_dumps(
        fourier_to_json_oracle(dim, matrix, parameter, coeffs)
    )
