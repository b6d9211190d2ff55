"""The one literal Wick product on ``ZPoly`` against the paths it replaced.

``zpoly.wick_orders`` walks the ordered coordinate tuples depth first and
returns every order of the literal Wick product at once.  It replaced two
paths, kept here as its oracles:

* the per-order loop of ``wick_contraction_reference``, which ran over all
  (n + 1)^r direction tuples and differentiated both polynomials afresh for
  each tuple;
* the recursive ``matched`` closure of ``radial.wick_product_literal``,
  which summed ``lam**t / t!`` times the matched derivatives as it went.

Both must agree with it on ``ZPoly``s with Gaussian-rational coefficients
and on radial pullbacks with lam-polynomial coefficients, and no order
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

from cpstar.models.flat import _as_lambda_poly
from cpstar.models.radial import RadialPolynomial, radial_pullback, wick_product_literal
from cpstar.nupoly import NuPolynomial
from cpstar.scalars import GaussRational
from cpstar.zpoly import ZPoly, wick_orders

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cpstar"
DERIVATIVES = {"diff_z", "diff_zbar"}


def per_order_loop(left: ZPoly, right: ZPoly, r: int) -> ZPoly:
    """Order r: every r-tuple of directions, both sides differentiated afresh."""
    total = ZPoly(left.n)
    for directions in iter_product(range(left.n + 1), repeat=r):
        d_left = left
        for i in directions:
            d_left = d_left.diff_z(i)
        if d_left.is_zero():
            continue
        d_right = right
        for i in directions:
            d_right = d_right.diff_zbar(i)
        if d_right.is_zero():
            continue
        total = total + d_left * d_right
    return total


def matched_literal(left: ZPoly, right: ZPoly) -> ZPoly:
    """The literal product, ``lam**t / t!`` applied at each depth of the walk."""
    coords = len(next(iter(left.terms))[0]) if left.terms else 0

    def matched(r_left: ZPoly, r_right: ZPoly, depth: int) -> ZPoly:
        total = (r_left * r_right).map_coefficients(
            lambda c: _as_lambda_poly(c).shift(depth) * Fraction(1, factorial(depth))
        )
        for i in range(coords):
            dl = r_left.diff_z(i)
            if dl.is_zero():
                continue
            dr = r_right.diff_zbar(i)
            if dr.is_zero():
                continue
            total = total + matched(dl, dr, depth + 1)
        return total

    return matched(left, right, 0)


def smaller_degree(left: ZPoly, right: ZPoly) -> int:
    """The left z-degree or the right z-bar-degree, whichever is smaller."""
    z_degree = max((sum(z) for _, z in left.terms), default=0)
    zbar_degree = max((sum(bar) for bar, _ in right.terms), default=0)
    return min(z_degree, zbar_degree)


def assert_orders_match(left: ZPoly, right: ZPoly) -> None:
    orders = wick_orders(left, right)
    top = smaller_degree(left, right)
    assert all(order.is_zero() for order in orders[top + 1 :])
    for r in range(top + 2):
        expected = per_order_loop(left, right, r)
        assert (orders[r] if r < len(orders) else ZPoly(left.n)) == expected, r
    assert wick_product_literal(left, right) == matched_literal(left, right)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
gauss = st.builds(GaussRational, rationals, rationals).filter(bool)


def exponents(n: int):
    return st.tuples(*[st.integers(0, 3)] * (n + 1)).filter(lambda e: sum(e) <= 3)


def zpolys(n: int):
    terms = st.dictionaries(st.tuples(exponents(n), exponents(n)), gauss, max_size=5)
    return terms.map(lambda t: ZPoly(n, t))


gauss_pairs = st.integers(0, 2).flatmap(lambda n: st.tuples(zpolys(n), zpolys(n)))


@settings(deadline=None)
@given(gauss_pairs)
def test_orders_match_both_oracles_over_gauss_rationals(pair):
    assert_orders_match(*pair)


lam_polys = st.lists(rationals, min_size=1, max_size=3).map(NuPolynomial)
radials = st.dictionaries(st.integers(0, 3), lam_polys, max_size=3).map(RadialPolynomial)


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 3), radials, radials)
def test_orders_match_both_oracles_on_radial_pullbacks(coords, p, q):
    assert_orders_match(radial_pullback(p, coords), radial_pullback(q, coords))


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
    assert wick_orders(ZPoly(2), right) == [ZPoly(2)]


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
