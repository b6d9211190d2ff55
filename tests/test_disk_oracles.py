"""The Weyl-basis disk product against the two products it must equal.

``disk_product`` works in the basis ``g_{p,q} = v^p D^q``, with int
weights.  Two oracles check it exactly:

* ``disk_product_oracle`` is the f-basis product it replaced, kept on
  purpose: it multiplies each pair of coefficients by the nu-rational
  weight ``disk_basis_coefficient(q, r, s, m)`` and sums each output over
  the lcm of its denominators with ``nupoly._sum``.  The stored integer
  forms must be identical.
* ``operator_product`` composes the two elements as differential operators
  on ``v^0 .. v^N``, ``f_{p,q} = c_q v^p D^q`` with
  ``c_q = nu^q / prod_{j<q}(1 + j nu)``, over ``NuRationalFunction``, and
  reads the normal-ordered form back by the triangular recurrence on
  ``v^j``.  It shares no code with the product but the rational functions.
"""

import json
from fractions import Fraction
from math import factorial, perm
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.models.disk import DiskElement, disk_basis_coefficient, disk_product
from cpstar.nupoly import NuPolynomial, NuRationalFunction, _sum, _times
from cpstar.scalars import GaussRational
from cpstar.serialize import disk_from_json

GOLDEN = Path(__file__).resolve().parent / "data" / "disk_coefficients_golden.json"


def disk_product_oracle(left: DiskElement, right: DiskElement) -> DiskElement:
    """The f-basis product: each contribution is the integer product of the
    two coefficients and the basis weight, grouped by output basis function,
    and each group is summed over the lcm of its denominators and reduced
    once (``nupoly._sum``)."""
    rights = [(r, s, b._ints()) for (r, s), b in right.coeffs.items()]
    weights: dict = {}
    groups: dict = {}
    for (p, q), a in left.coeffs.items():
        a_ints = a._ints()
        for r, s, b_ints in rights:
            pair = _times(a_ints, b_ints)
            for m in range(min(q, r) + 1):
                weight = weights.get((q, r, s, m))
                if weight is None:
                    weight = weights[q, r, s, m] = disk_basis_coefficient(q, r, s, m)._ints()
                groups.setdefault((p + r - m, q + s - m), []).append((pair, weight))
    out = [(key, _sum(_times(pair, weight) for pair, weight in group)) for key, group in groups.items()]
    return DiskElement._built((), out)


def forms(element: DiskElement) -> dict:
    return {key: value._ints() for key, value in element.coeffs.items()}


def assert_matches_oracle(left: DiskElement, right: DiskElement) -> DiskElement:
    product = disk_product(left, right)
    assert forms(product) == forms(disk_product_oracle(left, right))
    return product


# -- the operator oracle ---------------------------------------------------

NU = NuRationalFunction(NuPolynomial((0, 1)))
ONE = NuRationalFunction.constant(1)
ZERO = NuRationalFunction.constant(0)


def c(q: int) -> NuRationalFunction:
    """``nu^q / prod_{j<q}(1 + j nu)``, from its factors."""
    value = ONE
    for j in range(1, q + 1):
        value = value * NU
    for j in range(1, q):
        value = value / NuRationalFunction(NuPolynomial((1, j)))
    return value


def apply(element: DiskElement, poly: dict) -> dict:
    """``element`` as a differential operator on ``poly``, ``{j: coefficient
    of v^j}``: ``f_{p,q} v^j = c_q j!/(j-q)! v^(j-q+p)``."""
    out: dict = {}
    for (p, q), a in element.coeffs.items():
        weight = a * c(q)
        for j, value in poly.items():
            if j >= q:
                key = j - q + p
                out[key] = out.get(key, ZERO) + weight * value * perm(j, q)
    return out


def operator_product(left: DiskElement, right: DiskElement) -> DiskElement:
    """``left`` after ``right`` on ``v^0 .. v^N``, N the sum of their largest
    ``q``, read back as ``sum b_{p,Q} v^p D^Q`` by the recurrence
    ``b_{k,j} = ([v^k] T v^j - sum_{Q<j} b_{k-j+Q,Q} j!/(j-Q)!) / j!``."""
    top = max((q for _, q in left.coeffs), default=0) + max((q for _, q in right.coeffs), default=0)
    b: dict = {}
    for j in range(top + 1):
        image = apply(left, apply(right, {j: ONE}))
        for k in sorted(set(image) | {key + j - Q for key, Q in b}):
            if k < 0:
                continue
            value = image.get(k, ZERO)
            for Q in range(j):
                value = value - b.get((k - j + Q, Q), ZERO) * perm(j, Q)
            if value:
                b[k, j] = value / NuRationalFunction.constant(factorial(j))
    return DiskElement({(p, Q): value / c(Q) for (p, Q), value in b.items()})


def test_operator_oracle_on_every_basis_pair_up_to_index_four():
    basis = [DiskElement.basis(p, q) for p in range(5) for q in range(5)]
    for f in basis:
        for g in basis:
            assert disk_product(f, g) == operator_product(f, g)


def test_operator_oracle_reads_the_lowest_commutator():
    f01, f10 = DiskElement.basis(0, 1), DiskElement.basis(1, 0)
    # nu D v = nu v D + nu: f_{0,1} f_{1,0} = f_{1,1} + nu f_{0,0}
    expected = DiskElement({(1, 1): 1, (0, 0): NU})
    assert operator_product(f01, f10) == expected == disk_product(f01, f10)
    assert operator_product(f10, f01) == DiskElement.basis(1, 1)


# -- random elements -------------------------------------------------------

ints = st.integers(-4, 4)
fractions = st.builds(Fraction, ints, st.integers(1, 5))
gauss = st.builds(GaussRational, fractions, fractions)
nonzero_js = st.integers(-5, 5).filter(bool)
factored = st.builds(
    NuRationalFunction._from_ints,
    st.lists(st.tuples(ints, ints), min_size=1, max_size=4),
    st.integers(1, 6),
    st.lists(nonzero_js, max_size=4),
)
coefficients = st.one_of(
    st.builds(NuRationalFunction.constant, gauss),
    st.builds(NuRationalFunction.constant, ints),
    factored,
)


def elements(max_index: int = 6, max_terms: int = 4):
    index = st.integers(0, max_index)
    return st.dictionaries(st.tuples(index, index), coefficients, max_size=max_terms).map(DiskElement)


@settings(max_examples=300, deadline=None)
@given(elements(), elements())
def test_product_matches_the_f_basis_oracle(left, right):
    assert_matches_oracle(left, right)


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements(3, 3))
def test_product_of_a_product_matches_the_oracle(a, b, c):
    ab = assert_matches_oracle(a, b)
    assert_matches_oracle(ab, c)
    assert_matches_oracle(c, ab)


@settings(max_examples=40, deadline=None)
@given(elements(3, 3), elements(3, 3))
def test_product_matches_the_operator_oracle(left, right):
    assert disk_product(left, right) == operator_product(left, right)


@given(elements())
def test_empty_and_unit_elements(element):
    zero, unit = DiskElement.zero(), DiskElement.unit()
    assert disk_product(zero, element).is_zero() and disk_product(element, zero).is_zero()
    assert forms(disk_product(unit, element)) == forms(element) == forms(disk_product(element, unit))
    assert_matches_oracle(zero, element)
    assert_matches_oracle(unit, element)


def test_golden_basis_products_match_the_oracle():
    for record in json.loads(GOLDEN.read_text(encoding="utf-8"))["products"]:
        left, right = DiskElement.basis(*record["left"]), DiskElement.basis(*record["right"])
        product = assert_matches_oracle(left, right)
        assert forms(product) == forms(disk_from_json(record["product"]))

