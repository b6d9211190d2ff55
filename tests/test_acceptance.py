"""Acceptance suite: the exact identities this package promises, end to end.

Every check is exact (integer and rational arithmetic only); there are no
tolerances anywhere.  Each test finishes by printing a single [PASS] line
summarizing the property it established.
"""

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

from cpstar.linalg import matrix_rank
from cpstar.models.disk import DiskElement, disk_basis_coefficient, disk_product
from cpstar.models.radial import check_star_exponential
from cpstar.models.torus import (
    FourierSum,
    moyal_product,
    torus_quotient,
    torus_quotient_dimension,
)
from cpstar.multiindex import sorted_tuples
from cpstar.quotient import (
    ideal_factorize,
    quotient_dimension,
    quotient_map,
    substitute,
)
from cpstar.randgen import (
    random_antihermitean,
    random_element,
    random_fourier,
    random_matrix,
    random_symbol,
)
from cpstar.scalars import GAUSS_ZERO, GaussRational
from cpstar.serialize import canonical_dumps, disk_to_json
from cpstar.star import (
    RawNuSeries,
    StarElement,
    check_power_closed_form,
    check_strong_invariance,
    extract_structure,
    star_commutator,
    star_elements,
    star_symbols,
)
from cpstar.symbols import (
    SymbolTensor,
    embed,
    operator_product,
    pointwise_mul,
    symbol_of_matrix,
    wick_contraction,
    wick_contraction_reference,
)

DATA_DIR = Path(__file__).parent / "data"
SYMPLECTIC = [[0, 1], [-1, 0]]


def test_associativity_of_the_star_product():
    rng = random.Random(2026)
    cases = [(1, 3)] * 30 + [(2, 2)] * 20
    for n, top in cases:
        triple = [
            StarElement.lift(random_symbol(rng, n, rng.randint(0, top)))
            for _ in range(3)
        ]
        left = star_elements(star_elements(triple[0], triple[1]), triple[2])
        right = star_elements(triple[0], star_elements(triple[1], triple[2]))
        assert left == right
        assert left.expand() == right.expand()
    print("[PASS] star product associative on 50 random triples "
          "(30 at n=1 deg<=3, 20 at n=2 deg<=2), exact nu-series equality")


def test_closed_form_of_power_products():
    rng = random.Random(7)
    pairs = [(1, k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    pairs += [(2, k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    pairs += [(1, 2, 3), (2, 3, 2)]
    assert len(pairs) == 20
    for n, k, l in pairs:
        assert check_power_closed_form(
            random_matrix(rng, n), random_matrix(rng, n), k, l
        )
    print("[PASS] closed power form: sigma(A)^k * sigma(B)^l matches the "
          "explicit coefficient formula on 20 matrix pairs, n<=2, k,l<=3")


def test_quotients_are_full_matrix_algebras():
    rng = random.Random(11)
    cases = [(1, 1, 4), (1, 2, 9), (1, 3, 16), (2, 1, 9), (2, 2, 36)]
    for n, K, expected_dim in cases:
        assert quotient_dimension(n, K) == expected_dim
        assert quotient_map(StarElement.unit(n), K).is_identity()
        for _ in range(20):
            a = random_element(rng, n, rng.randint(0, 2))
            b = random_element(rng, n, rng.randint(0, 2))
            image = quotient_map(star_elements(a, b), K)
            composed = quotient_map(a, K).compose(quotient_map(b, K))
            assert image == composed
        indices = sorted_tuples(n, K)
        slots = [(u, v) for u in indices for v in indices]
        rows = []
        for left in indices:
            for right in indices:
                basis = SymbolTensor.basis_entry(n, K, left, right)
                entries = quotient_map(StarElement.lift(basis), K).tensor.entries
                rows.append([entries.get(slot, GAUSS_ZERO) for slot in slots])
        assert matrix_rank(rows) == expected_dim
    print("[PASS] quotient map: multiplicative (20 pairs each), unital, and "
          "surjective onto matrix algebras of dimensions 4, 9, 16, 9, 36")


def _times_nu_minus_alpha(element: StarElement, alpha: Fraction) -> StarElement:
    shifted = element.nu_shift(1)
    scaled = element.relevel(element.level + 1).scale(GaussRational(alpha))
    return shifted - scaled


def test_substitution_ideals_are_two_sided_and_factor():
    rng = random.Random(23)
    alphas = [
        Fraction(2),
        Fraction(1, 5),
        Fraction(-1, 3),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
    ]
    instances = 0
    for i in range(40):
        alpha = alphas[i % len(alphas)]
        member = _times_nu_minus_alpha(
            random_element(rng, 1, rng.randint(0, 2)), alpha
        )
        if alpha.numerator == 1 and alpha > 0 and i % 2:
            # components above K keep their own vanishing weight at 1/K
            K = alpha.denominator
            member = member + StarElement.lift(random_symbol(rng, 1, K + 1))
        other = random_element(rng, 1, rng.randint(0, 2))
        for product in (star_elements(member, other), star_elements(other, member)):
            assert substitute(product, alpha).is_zero()
            assert ideal_factorize(product, alpha).reconstruction() == product
        assert ideal_factorize(member, alpha).reconstruction() == member
        instances += 1
    assert instances == 40
    print("[PASS] substitution ideals: star products with arbitrary elements "
          "stay members and every member factors back exactly, 40 instances")


def test_strong_invariance_of_linear_symbols():
    rng = random.Random(5)
    cases = [(1, 12), (2, 8)]
    for n, count in cases:
        for _ in range(count):
            matrix = random_antihermitean(rng, n)
            phi = random_symbol(rng, n, rng.randint(1, 3))
            assert check_strong_invariance(matrix, phi)
    print("[PASS] strong invariance: commutator with a matrix symbol is "
          "first-order with coefficient exactly nu, 20 antihermitean matrices")


def test_contraction_oracle_equivalence():
    rng = random.Random(13)
    for n in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                a = random_symbol(rng, n, k, density=0.7)
                b = random_symbol(rng, n, l, density=0.7)
                for r in range(min(k, l) + 1):
                    assert wick_contraction(a, b, r) == wick_contraction_reference(
                        a, b, r
                    )
    for n in (1, 2):
        for K in (1, 2):
            a = random_symbol(rng, n, K, density=0.7)
            b = random_symbol(rng, n, K, density=0.7)
            assert wick_contraction(a, b, K) == operator_product(a, b).scale(
                factorial(K) ** 2
            )
    print("[PASS] contraction oracle: fast contraction equals the brute-force "
          "reference at every order, and the top order is K!K! times the "
          "operator product")


def test_star_product_is_embedding_independent():
    rng = random.Random(17)
    for i in range(20):
        n = 1 + i % 2
        k = rng.randint(1, 2)
        l = rng.randint(1, 2)
        f = random_symbol(rng, n, k, density=0.7)
        g = random_symbol(rng, n, l, density=0.7)
        base = star_symbols(f, g)
        lifted = star_symbols(embed(f), embed(g))
        degree = k + l + 2
        assert base.nrf_map(degree) == lifted.nrf_map(degree)
    print("[PASS] embedding independence: star products of inputs embedded "
          "one degree higher agree entry-by-entry, 20 instances")


def test_star_exponential_closed_form():
    assert check_star_exponential(8)
    print("[PASS] star exponential: iterated Wick powers match the closed "
          "expansion through order 8 as polynomial identities")


def test_torus_model_products_and_quotients():
    rng = random.Random(29)
    for denom in (2, 3, 4):
        parameter = Fraction(1, denom)
        for _ in range(5):
            a = random_fourier(rng, 2, SYMPLECTIC, parameter)
            b = random_fourier(rng, 2, SYMPLECTIC, parameter)
            c = random_fourier(rng, 2, SYMPLECTIC, parameter)
            assert moyal_product(moyal_product(a, b), c) == moyal_product(
                a, moyal_product(b, c)
            )
    for K in (1, 2, 3, 4):
        parameter = Fraction(1, K)
        one = torus_quotient(
            FourierSum.mode(2, SYMPLECTIC, parameter, (0, 0)), K
        )
        for _ in range(5):
            a = random_fourier(rng, 2, SYMPLECTIC, parameter)
            b = random_fourier(rng, 2, SYMPLECTIC, parameter)
            c = random_fourier(rng, 2, SYMPLECTIC, parameter)
            qa, qb, qc = (torus_quotient(f, K) for f in (a, b, c))
            assert torus_quotient(moyal_product(a, b), K) == qa.product(qb)
            assert qa.product(qb).product(qc) == qa.product(qb.product(qc))
            assert one.product(qa) == qa and qa.product(one) == qa
        assert torus_quotient_dimension(2, K) == K**2
        classes = {
            tuple(c % K for c in (u, v))
            for u in range(-K, 2 * K)
            for v in range(-K, 2 * K)
        }
        assert len(classes) == K**2
        for mode in classes:
            folded = torus_quotient(
                FourierSum.mode(2, SYMPLECTIC, parameter, mode), K
            )
            assert list(folded.coeffs) == [mode]
    print("[PASS] torus: Moyal product associative at 1/2, 1/3, 1/4; the mod-K "
          "fold is well defined, associative, unital, of dimension K^2 for "
          "K = 1, 2, 3, 4 (4 classes at K=2, ..., 16 at K=4)")


def test_disk_model_against_golden_coefficients():
    basis = [DiskElement.basis(p, q) for p in range(4) for q in range(4)]
    unit = DiskElement.unit()
    for f in basis:
        assert disk_product(unit, f) == f
        assert disk_product(f, unit) == f
    pair = {}
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            pair[(i, j)] = disk_product(f, g)
    for i in range(len(basis)):
        for j in range(len(basis)):
            fg = pair[(i, j)]
            for m in range(len(basis)):
                assert disk_product(fg, basis[m]) == disk_product(basis[i], pair[(j, m)])

    # byte-for-byte comparison of every pairwise product with the pinned file
    records = []
    for p in range(4):
        for q in range(4):
            for r in range(4):
                for s in range(4):
                    product = disk_product(
                        DiskElement.basis(p, q), DiskElement.basis(r, s)
                    )
                    records.append(
                        {"left": [p, q], "right": [r, s], "product": disk_to_json(product)}
                    )
    text = canonical_dumps({"bound": 3, "products": records}) + "\n"
    golden = (DATA_DIR / "disk_coefficients_golden.json").read_text(encoding="utf-8")
    assert text == golden

    # the combinatorial weight formula, evaluated independently with Fractions
    def negated_pochhammer_value(k: int, nu: Fraction) -> Fraction:
        out = Fraction(1)
        for j in range(1, k):
            out *= 1 + j * nu
        return out

    for nu in (Fraction(1, 7), Fraction(3, 2)):
        for q in range(4):
            for r in range(4):
                for s in range(4):
                    for m in range(min(q, r) + 1):
                        expected = (
                            nu**m
                            * negated_pochhammer_value(q + s - m, nu)
                            / (
                                negated_pochhammer_value(q, nu)
                                * negated_pochhammer_value(s, nu)
                            )
                            * Fraction(
                                factorial(q) * factorial(r),
                                factorial(m)
                                * factorial(q - m)
                                * factorial(r - m),
                            )
                        )
                        value = disk_basis_coefficient(q, r, s, m).evaluate(nu)
                        assert value == GaussRational(expected)
    print("[PASS] disk: product associative on all 4096 basis triples with "
          "indices <= 3, unital, coefficients byte-identical to the golden "
          "file and equal to the combinatorial formula at sample parameters")


def test_squared_overlap_is_not_a_filtered_element():
    ones = GaussRational(1)
    sym = symbol_of_matrix([[ones, ones], [ones, ones]])
    # sanity: the unsquared overlap itself is recognized at its own level
    linear = RawNuSeries(1, 1, {0: sym})
    assert extract_structure(linear, 1) is not None
    square = pointwise_mul(sym, sym)
    series = RawNuSeries(1, 2, {0: square})
    for level in range(7):
        assert extract_structure(series, level) is None
    print("[PASS] non-membership: the squared-overlap function over x^2 lies "
          "outside the filtered algebra at every level 0..6")


def test_diagonal_generators_star_commute():
    def diag(*values):
        return [
            [GaussRational(values[i]) if i == j else GaussRational(0) for j in range(3)]
            for i in range(3)
        ]

    generators = [diag(1, -1, 0), diag(0, 1, -1), diag(1, 0, -1)]
    lifted = [StarElement.lift(symbol_of_matrix(m)) for m in generators]
    for a in lifted:
        for b in lifted:
            assert star_elements(a, b) == star_elements(b, a)
    for x in generators:
        for y in generators:
            commutator = star_commutator(symbol_of_matrix(x), symbol_of_matrix(y))
            assert all(term.tensor.is_zero() for term in commutator.terms)
    print("[PASS] integrable family: diagonal traceless hermitean generators "
          "have exactly vanishing star commutators at n=2")
