"""The one literal Wick product on ``ZPoly`` against the paths it replaced.

``zpoly.wick_orders`` walks the ordered coordinate tuples depth first,
adds each pair's product straight into its order's sum and returns every
order of the literal Wick product at once.  The code it replaced is kept
here, on plain term dicts, as its oracles:

* the product, sum and derivatives that went through ``add_term`` term by
  term, and the walk that copied its order at every node;
* the per-order loop of ``wick_contraction_reference``, which ran over all
  (n + 1)^r direction tuples and differentiated both polynomials afresh for
  each tuple;
* the recursive ``matched`` closure of ``radial.wick_product_literal``,
  which summed ``lam**t / t!`` times the matched derivatives as it went;
* ``SymbolTensor.to_zpoly`` through ``add_term`` and ``from_zpoly`` with a
  letter tuple per term.

None of them calls the rewritten ``ZPoly`` product, derivatives or walk.
They must agree with it on ``ZPoly``s over n = 0-3 with Gaussian-rational
and with lam-polynomial coefficients and on radial pullbacks, and no order
past the smaller of the left z-degree and the right z-bar-degree may hold
a term.  Last, an :mod:`ast` scan keeps ``zpoly.py`` the only module under
``src/cpstar`` that differentiates a ``ZPoly``.
"""

import ast
from fractions import Fraction
from itertools import product as iter_product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar.models.radial import RadialPolynomial, _as_lambda_poly, radial_pullback, wick_product_literal
from cpstar.multiindex import _ranks, _width
from cpstar.nupoly import NuPolynomial
from cpstar.scalars import GaussRational, _over_lcm, to_gauss
from cpstar.symbols import SymbolTensor
from cpstar.zpoly import ZPoly, wick_orders

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cpstar"
DERIVATIVES = {"diff_z", "diff_zbar"}


# -- the replaced code, on term dicts -------------------------------------


def add_term(terms: dict, key, coeff) -> None:
    current = terms.get(key)
    total = coeff if current is None else current + coeff
    if total:
        terms[key] = total
    elif key in terms:
        del terms[key]


def dict_sum(left: dict, right: dict) -> dict:
    out = dict(left)
    for key, value in right.items():
        add_term(out, key, value)
    return out


def dict_product(left: dict, right: dict) -> dict:
    out: dict = {}
    for (bar_a, z_a), va in left.items():
        for (bar_b, z_b), vb in right.items():
            key = (
                tuple(x + y for x, y in zip(bar_a, bar_b)),
                tuple(x + y for x, y in zip(z_a, z_b)),
            )
            add_term(out, key, va * vb)
    return out


def dict_diff_z(terms: dict, i: int) -> dict:
    out: dict = {}
    for (bar, z), value in terms.items():
        e = z[i]
        if e:
            lowered = z[:i] + (e - 1,) + z[i + 1 :]
            add_term(out, (bar, lowered), value * e)
    return out


def dict_diff_zbar(terms: dict, i: int) -> dict:
    out: dict = {}
    for (bar, z), value in terms.items():
        e = bar[i]
        if e:
            lowered = bar[:i] + (e - 1,) + bar[i + 1 :]
            add_term(out, (lowered, z), value * e)
    return out


def copy_per_node_walk(n: int, left: dict, right: dict) -> list[dict]:
    """The replaced ``wick_orders``: every node of the walk adds its product
    into a fresh copy of its order."""
    orders: list[dict] = []

    def walk(d_left: dict, d_right: dict, t: int) -> None:
        if t == len(orders):
            orders.append({})
        orders[t] = dict_sum(orders[t], dict_product(d_left, d_right))
        for i in range(n + 1):
            next_left = dict_diff_z(d_left, i)
            if next_left:
                next_right = dict_diff_zbar(d_right, i)
                if next_right:
                    walk(next_left, next_right, t + 1)

    walk(left, right, 0)
    return orders


def per_order_loop(n: int, left: dict, right: dict, r: int) -> dict:
    """Order r: every r-tuple of directions, both sides differentiated afresh."""
    total: dict = {}
    for directions in iter_product(range(n + 1), repeat=r):
        d_left = left
        for i in directions:
            d_left = dict_diff_z(d_left, i)
        if not d_left:
            continue
        d_right = right
        for i in directions:
            d_right = dict_diff_zbar(d_right, i)
        if not d_right:
            continue
        total = dict_sum(total, dict_product(d_left, d_right))
    return total


def matched_literal(n: int, left: dict, right: dict) -> dict:
    """The literal product, ``lam**t / t!`` applied at each depth of the walk."""

    def matched(r_left: dict, r_right: dict, depth: int) -> dict:
        total: dict = {}
        for key, c in dict_product(r_left, r_right).items():
            add_term(total, key, _as_lambda_poly(c).shift(depth) * Fraction(1, factorial(depth)))
        for i in range(n + 1):
            dl = dict_diff_z(r_left, i)
            if not dl:
                continue
            dr = dict_diff_zbar(r_right, i)
            if not dr:
                continue
            total = dict_sum(total, matched(dl, dr, depth + 1))
        return total

    return matched(left, right, 0)


def tensor_terms(tensor: SymbolTensor) -> dict:
    """The replaced ``SymbolTensor.to_zpoly``, one ``add_term`` per entry."""
    out: dict = {}
    width = tensor.n + 1
    for (left, right), coeff in tensor.poly_items():
        bar = [0] * width
        for a in left:
            bar[a] += 1
        hol = [0] * width
        for a in right:
            hol[a] += 1
        add_term(out, (tuple(bar), tuple(hol)), coeff)
    return out


def tensor_of_terms(n: int, k: int, terms: dict) -> SymbolTensor:
    """The replaced ``SymbolTensor.from_zpoly``, a letter tuple per term."""
    ranks, width = _ranks(n, k), _width(n, k) if terms else 0
    parts = {}
    for (bar, hol), coeff in terms.items():
        if sum(bar) != k or sum(hol) != k:
            raise ValueError(f"polynomial is not bihomogeneous of degree ({k}, {k})")
        left = tuple(a for a in range(n + 1) for _ in range(bar[a]))
        right = tuple(a for a in range(n + 1) for _ in range(hol[a]))
        p, q, m = to_gauss(coeff)._ints()
        parts[ranks[left] * width + ranks[right]] = (p, m, q, m, 1)
    return SymbolTensor._from_cells(n, k, *_over_lcm(parts))


# -- the engine against them ----------------------------------------------


def smaller_degree(left: ZPoly, right: ZPoly) -> int:
    """The left z-degree or the right z-bar-degree, whichever is smaller."""
    z_degree = max((sum(z) for _, z in left.terms), default=0)
    zbar_degree = max((sum(bar) for bar, _ in right.terms), default=0)
    return min(z_degree, zbar_degree)


def assert_orders_match(left: ZPoly, right: ZPoly) -> None:
    n = left.n
    orders = wick_orders(left, right)
    assert [order.terms for order in orders] == copy_per_node_walk(n, left.terms, right.terms)
    assert (left * right).terms == dict_product(left.terms, right.terms)
    top = smaller_degree(left, right)
    assert all(order.is_zero() for order in orders[top + 1 :])
    for r in range(top + 2):
        expected = per_order_loop(n, left.terms, right.terms, r)
        assert (orders[r].terms if r < len(orders) else {}) == expected, r
    assert wick_product_literal(left, right).terms == matched_literal(n, left.terms, right.terms)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
gauss = st.builds(GaussRational, rationals, rationals).filter(bool)
lam_polys = st.lists(rationals, min_size=1, max_size=3).map(NuPolynomial)


def exponents(n: int, top: int = 3):
    return st.tuples(*[st.integers(0, top)] * (n + 1)).filter(lambda e: sum(e) <= top)


def zpolys(n: int, coefficients):
    terms = st.dictionaries(st.tuples(exponents(n), exponents(n)), coefficients, max_size=5)
    return terms.map(lambda t: ZPoly(n, t))


def pairs_over(coefficients):
    return st.integers(0, 3).flatmap(lambda n: st.tuples(zpolys(n, coefficients), zpolys(n, coefficients)))


@settings(deadline=None)
@given(pairs_over(gauss))
def test_orders_match_the_replaced_code_over_gauss_rationals(pair):
    assert_orders_match(*pair)


@settings(deadline=None, max_examples=50)
@given(pairs_over(lam_polys))
def test_orders_match_the_replaced_code_over_lam_polynomials(pair):
    assert_orders_match(*pair)


radials = st.dictionaries(st.integers(0, 3), lam_polys, max_size=3).map(RadialPolynomial)


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 3), radials, radials)
def test_orders_match_the_replaced_code_on_radial_pullbacks(coords, p, q):
    assert_orders_match(radial_pullback(p, coords), radial_pullback(q, coords))


def sorted_indices(n: int, k: int):
    return st.lists(st.integers(0, n), min_size=k, max_size=k).map(lambda letters: tuple(sorted(letters)))


def tensors(n: int, k: int):
    entries = st.dictionaries(st.tuples(sorted_indices(n, k), sorted_indices(n, k)), gauss, max_size=6)
    return entries.map(lambda e: SymbolTensor(n, k, e))


@settings(deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(lambda nk: tensors(*nk)))
def test_the_zpoly_round_trip_matches_the_replaced_code(tensor):
    n, k = tensor.n, tensor.k
    poly = tensor.to_zpoly()
    assert poly.terms == tensor_terms(tensor)
    assert SymbolTensor.from_zpoly(n, k, poly) == tensor_of_terms(n, k, poly.terms) == tensor


def test_a_cancelling_order_is_an_empty_zpoly():
    # (z_0 + z_1) against (zbar_0 - zbar_1): order 1 is 1 * 1 - 1 * 1
    one = GaussRational(1)
    left = ZPoly(1, {((0, 0), (1, 0)): one, ((0, 0), (0, 1)): one})
    right = ZPoly(1, {((1, 0), (0, 0)): one, ((0, 1), (0, 0)): -one})
    orders = wick_orders(left, right)
    assert len(orders) == 2
    assert orders[0] == left * right and len(orders[0].terms) == 4
    assert orders[1].terms == {}
    # (z_0 + zbar_0)(z_0 - zbar_0): the two z_0 zbar_0 products cancel
    mixed = ZPoly(1, {((0, 0), (1, 0)): one, ((1, 0), (0, 0)): one})
    opposed = ZPoly(1, {((0, 0), (1, 0)): one, ((1, 0), (0, 0)): -one})
    assert (mixed * opposed).terms == {((0, 0), (2, 0)): one, ((2, 0), (0, 0)): -one}
    assert_orders_match(left, right)
    assert_orders_match(mixed, opposed)


def test_orders_stop_at_the_smaller_degree():
    # z0^2 zbar1 against z1 zbar0^3: at most two matched z-derivatives on the left
    left = ZPoly.monomial(1, (0, 1), (2, 0), GaussRational(1))
    right = ZPoly.monomial(1, (3, 0), (0, 1), GaussRational(2))
    orders = wick_orders(left, right)
    assert len(orders) == 3
    assert orders[2] == ZPoly.monomial(1, (1, 1), (0, 1), GaussRational(24))
    assert len(wick_orders(right, left)) == 2
    # no coordinate carries both a left z and a right zbar: only order 0
    assert wick_orders(left, left) == [left * left]
    assert wick_orders(ZPoly(1), right) == [ZPoly(1)]


# -- polynomials over different n do not mix -------------------------------


def _over_one_and_two():
    one = GaussRational(1)
    return ZPoly.monomial(1, (1, 0), (1, 0), one), ZPoly.monomial(2, (0, 0, 1), (0, 0, 1), one)


@pytest.mark.parametrize(
    "combine",
    [
        lambda a, b: a * b,
        lambda a, b: b * a,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: wick_orders(a, b),
        lambda a, b: wick_orders(b, a),
    ],
    ids=["a*b", "b*a", "a+b", "a-b", "wick(a,b)", "wick(b,a)"],
)
def test_polynomials_over_different_n_do_not_mix(combine):
    with pytest.raises(ValueError, match="does not mix"):
        combine(*_over_one_and_two())


@pytest.mark.parametrize(
    "key",
    [
        ((1,), (1,)),
        ((1, 0, 0), (1, 0)),
        ((1, 0), (1, -1)),
        ((1, 0), (1.0, 0)),
        ((1, 0), (True, 0)),
        ((1, 0),),
        ((1, 0), (1, 0), (0, 0)),
        "ab",
    ],
)
def test_exponent_vectors_must_be_n_plus_one_nonnegative_ints(key):
    with pytest.raises(ValueError, match="nonnegative ints"):
        ZPoly(1, {key: GaussRational(1)})


def test_monomial_checks_its_exponent_vectors():
    with pytest.raises(ValueError, match="nonnegative ints"):
        ZPoly.monomial(1, (1,), (1,), 1)
    with pytest.raises(ValueError, match="nonnegative ints"):
        ZPoly.monomial(1, (1, 0), (0, -1), 1)
    assert ZPoly.monomial(1, [1, 0], [0, 1], 1).terms == {((1, 0), (0, 1)): 1}


def test_evaluate_takes_n_plus_one_values_of_each_kind():
    poly = ZPoly(1, {((0, 1), (0, 1)): 5})
    assert poly.evaluate([2, 3], [2, 7]) == 5 * 3 * 7
    for zbar, z in [([2], [3]), ([2, 3], [3]), ([2, 3, 4], [3, 4, 5])]:
        with pytest.raises(ValueError, match="takes 2"):
            poly.evaluate(zbar, z)


@pytest.mark.parametrize("other_n", [0, 2])
def test_from_zpoly_refuses_a_polynomial_over_another_n(other_n):
    unit = (0,) * other_n + (1,)
    poly = ZPoly(other_n, {(unit, unit): 1})
    with pytest.raises(ValueError, match=r"CP\^1 is read from a ZPoly\(1\)"):
        SymbolTensor.from_zpoly(1, 1, poly)
    with pytest.raises(ValueError, match=r"CP\^1 is read from a ZPoly\(1\)"):
        SymbolTensor.from_zpoly(1, 1, ZPoly(other_n))


def _derivative_uses(tree):
    """``(line, name)`` of every ``diff_z`` or ``diff_zbar`` the module names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DERIVATIVES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in DERIVATIVES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names if alias.name in DERIVATIVES)
    return sorted(found)


MODULES = sorted(SOURCE.rglob("*.py"))


def test_the_source_tree_is_found():
    assert SOURCE / "zpoly.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_only_zpoly_differentiates_a_zpoly(path):
    uses = _derivative_uses(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "zpoly.py" and path.parent == SOURCE:
        assert {name for _, name in uses} == DERIVATIVES
    else:
        assert not uses, f"{path.name} differentiates a ZPoly itself: " + ", ".join(f"{name} (line {line})" for line, name in uses)


def test_the_check_sees_a_second_literal_product():
    tree = ast.parse(
        "def f(p, q):\n"
        "    return p.diff_z(0) * q.diff_zbar(0)\n"
        "g = ZPoly.diff_z\n"
        "from cpstar.zpoly import diff_zbar\n"
        "p.diff(0)\n"
    )
    assert _derivative_uses(tree) == [(2, "diff_z"), (2, "diff_zbar"), (3, "diff_z"), (4, "diff_zbar")]
