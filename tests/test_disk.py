"""Disk model: basis products with negated-parameter Pochhammer weights."""

from fractions import Fraction
from unittest import mock

import pytest

from cpstar.models import disk
from cpstar.models.disk import (
    DiskElement,
    disk_basis_coefficient,
    disk_product,
    neg_nu_pochhammer,
)
from cpstar.nupoly import NuPolynomial, NuRationalFunction
from cpstar.star import _star_coefficient


def nrf(num, den=(1,)):
    return NuRationalFunction(NuPolynomial(num), NuPolynomial(den))


def test_negated_pochhammer_values():
    assert neg_nu_pochhammer(0) == NuPolynomial((1,))
    assert neg_nu_pochhammer(1) == NuPolynomial((1,))
    assert neg_nu_pochhammer(2) == NuPolynomial((1, 1))
    assert neg_nu_pochhammer(3) == NuPolynomial((1, 3, 2))  # (1+nu)(1+2nu)
    # every coefficient positive: no vanishing at positive parameters
    assert all(c.re > 0 and not c.im for c in neg_nu_pochhammer(5).coeffs)


def test_element_validation_and_normalization():
    with pytest.raises(ValueError):
        DiskElement({(-1, 0): 1})
    assert DiskElement({(1, 1): 0}).is_zero()
    elem = DiskElement.basis(1, 2, Fraction(1, 3))
    with pytest.raises(AttributeError):
        elem.coeffs = {}
    assert elem.coefficient(1, 2) == nrf((Fraction(1, 3),))
    assert elem.coefficient(0, 0) == nrf((0,))


def test_unit_is_neutral():
    one = DiskElement.unit()
    f = DiskElement({(1, 2): 3, (0, 1): nrf((0, 1))})
    assert disk_product(one, f) == f
    assert disk_product(f, one) == f


def test_lowest_noncommuting_pair():
    f01 = DiskElement.basis(0, 1)
    f10 = DiskElement.basis(1, 0)
    forward = disk_product(f01, f10)
    assert forward == DiskElement({(0, 0): nrf((0, 1)), (1, 1): 1})
    # no contraction is available in the other order
    assert disk_product(f10, f01) == DiskElement.basis(1, 1)


def test_double_contraction_weights():
    product = disk_product(DiskElement.basis(0, 2), DiskElement.basis(2, 0))
    assert product.coefficient(2, 2) == nrf((1,))
    assert product.coefficient(1, 1) == nrf((0, 4), (1, 1))
    assert product.coefficient(0, 0) == nrf((0, 0, 2), (1, 1))
    assert set(product.coeffs) == {(2, 2), (1, 1), (0, 0)}


def test_basis_coefficient_top_contraction():
    # full contraction of q = r = m: nu^m q! r! / (m! poch(s at -nu) ...) checks
    # out against a direct evaluation of the closed formula
    value = disk_basis_coefficient(2, 2, 1, 2)
    expected = NuRationalFunction(
        NuPolynomial.nu_power(2) * neg_nu_pochhammer(1) * Fraction(2),
        neg_nu_pochhammer(2) * neg_nu_pochhammer(1),
    )
    assert value == expected


def test_product_is_bilinear():
    a = DiskElement.basis(0, 1, Fraction(2))
    b = DiskElement.basis(1, 1)
    c = DiskElement.basis(1, 0, nrf((0, 1)))
    left = disk_product(a + b, c)
    assert left == disk_product(a, c) + disk_product(b, c)
    right = disk_product(c, a + b)
    assert right == disk_product(c, a) + disk_product(c, b)
    scaled = disk_product(a.scale(nrf((1, 1))), c)
    assert scaled == disk_product(a, c).scale(nrf((1, 1)))


def test_associativity_on_low_basis_elements():
    basis = [DiskElement.basis(p, q) for p in range(3) for q in range(3)]
    for f in basis:
        for g in basis:
            fg = disk_product(f, g)
            for h in basis:
                assert disk_product(fg, h) == disk_product(f, disk_product(g, h))


def test_associativity_with_rational_weights():
    f = DiskElement({(0, 2): nrf((1, 1)), (1, 0): 2})
    g = DiskElement({(2, 1): Fraction(1, 2), (0, 1): nrf((0, 1), (1, 2))})
    h = DiskElement({(1, 1): 1, (2, 0): nrf((3,))})
    assert disk_product(disk_product(f, g), h) == disk_product(f, disk_product(g, h))


def test_weight_caches_are_bounded_on_a_large_product():
    # every q against all f_{r,s} with r, s <= 12 meets the 10,647 weights
    # (q, r, s, m) of the square of all f_{p,q} with p, q <= 12
    left = DiskElement({(0, q): 1 for q in range(13)})
    right = DiskElement({(r, s): 1 for r in range(13) for s in range(13)})
    disk_basis_coefficient.cache_clear()
    product = disk_product(left, right)
    info = disk_basis_coefficient.cache_info()
    assert info.misses == 10_647 > info.maxsize >= info.currsize
    assert _star_coefficient.cache_info().maxsize == info.maxsize
    with mock.patch.object(disk, "disk_basis_coefficient", disk_basis_coefficient.__wrapped__):
        assert disk_product(left, right) == product
