"""Polynomials and rational functions in the formal deformation parameter.

The deformation parameter is written ``nu`` throughout.  Coefficients are
Gaussian rationals; polynomials store a coefficient tuple with the lowest
degree first and no trailing zeros.  Rational functions keep numerator and
denominator coprime with a monic denominator, so structural equality is
semantic equality.

The central special family is the nu-Pochhammer product

    nu^(0) = nu^(1) = 1,     nu^(k) = (1 - nu)(1 - 2 nu) ... (1 - (k-1) nu)

with the recurrence ``nu^(k+1) = (1 - k nu) nu^(k)``; evaluated at ``1/K``
it vanishes exactly when ``k >= K + 1``.  Every coefficient the CP^n star
products build is ``nu^t / t! nu^(k+l-t) / (nu^(k) nu^(l))``
(:func:`_weight_ints`, which also gives the disk's weight in its ``f``
basis, with the Pochhammer products at ``-nu``), and every product of
factors ``1 - j nu`` is multiplied out by one routine, :func:`_linear_ints`.

A rational function stores one value: its canonical integer form
``(nums, den, js)``, the value ``nums / (den prod(1 - j nu))`` with
Gaussian-integer ``nums`` and a positive int ``den``.  It is reduced in one
place, :func:`_reduced`, which cancels each root ``1/j`` by integer
synthetic division and divides out one gcd.  Sums, products and scalar
multiples, the per-entry sums of
:meth:`cpstar.star.StarProductTerms.nrf_map` and the per-output sums of
:func:`cpstar.models.disk.disk_product`, which runs in the Weyl basis with
int weights (:func:`_gauss_mul`, :func:`_union`, :func:`_difference`,
:func:`_widen_into`), are all built in that form and reduced once, and
values compare as ints.  Their ``num`` and ``den``
polynomials are views, built only for output and evaluation.  The
constructor, and so the JSON loader, splits a denominator into factors
over integer j (:func:`_split_js`) and refuses one that does not split,
so every value cpstar writes reads back to the same form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRational, ScalarLike, _gauss, _over_lcm, _required, to_gauss

__all__ = [
    "MAX_LOADED_DEGREE",
    "NuPolynomial",
    "NuRationalFunction",
    "nu_pochhammer",
]


class NuPolynomial:
    """Dense univariate polynomial in ``nu`` over the Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()) -> None:
        normalized = [to_gauss(c) for c in coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NuPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: ScalarLike) -> "NuPolynomial":
        return cls((to_gauss(value),))

    @classmethod
    def nu_power(cls, j: int, scale: ScalarLike = 1) -> "NuPolynomial":
        if j < 0:
            raise ValueError("nu_power requires a nonnegative exponent")
        return cls((GAUSS_ZERO,) * j + (to_gauss(scale),))

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "NuPolynomial":
        return cls(GaussRational.from_json(entry) for entry in data)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, j: int) -> GaussRational:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return GAUSS_ZERO

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NuPolynomial") -> "NuPolynomial":
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return NuPolynomial(out)

    def __sub__(self, other: "NuPolynomial") -> "NuPolynomial":
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NuPolynomial":
        return NuPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: Union["NuPolynomial", ScalarLike]) -> "NuPolynomial":
        if isinstance(other, NuPolynomial):
            if not self.coeffs or not other.coeffs:
                return NU_ZERO
            out = [GAUSS_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for j, a in enumerate(self.coeffs):
                if not a:
                    continue
                for m, b in enumerate(other.coeffs):
                    if b:
                        out[j + m] = out[j + m] + a * b
            return NuPolynomial(out)
        if isinstance(other, (int, Fraction, GaussRational)):
            return NuPolynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, j: int) -> "NuPolynomial":
        """Multiply by ``nu**j``, ``j`` nonnegative."""
        if j < 0:
            raise ValueError("shift requires a nonnegative exponent")
        if not self.coeffs:
            return self
        return NuPolynomial((GAUSS_ZERO,) * j + self.coeffs)

    def evaluate(self, alpha: ScalarLike) -> GaussRational:
        """Horner evaluation at an exact scalar."""
        alpha = to_gauss(alpha)
        acc = GAUSS_ZERO
        for c in reversed(self.coeffs):
            acc = acc * alpha + c
        return acc

    def monic(self) -> "NuPolynomial":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == GAUSS_ONE:
            return self
        return self * (GAUSS_ONE / lead)

    # -- comparison / rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NuPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussRational)):
            if not to_gauss(other):
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as the scalar
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else GAUSS_ZERO)
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"NuPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"({c})*nu")
            else:
                parts.append(f"({c})*nu^{j}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]


NU_ZERO = NuPolynomial()
NU_ONE = NuPolynomial((GAUSS_ONE,))
NU = NuPolynomial((GAUSS_ZERO, GAUSS_ONE))


GaussInts = Sequence[Sequence[int]]
"""A polynomial over the Gaussian integers: ``(re, im)`` pairs, lowest first."""


def _poly_ints(coeffs: Sequence[GaussRational]) -> tuple[int, list[tuple[int, int]]]:
    """A coefficient tuple as Gaussian integers over their least common
    denominator: ``(den, nums)``, lowest first."""
    parts = {}
    for i, c in enumerate(coeffs):
        if c:
            p, q, m = c._ints()
            parts[i] = (p, m, q, m, 1)
    den, cells = _over_lcm(parts)
    return den, [cells.get(i, (0, 0)) for i in range(len(coeffs))]


@lru_cache(maxsize=1024)
def _linear_ints(js: tuple[int, ...]) -> tuple[int, ...]:
    """The integer coefficients of the product of ``1 - j nu`` over ``js``."""
    out = [1]
    for j in js:
        out = [a - j * b for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


def _pochhammer_js(k: int, sign: int = 1) -> tuple[int, ...]:
    """The ``js`` whose product of ``1 - j nu`` is ``nu^(k)`` at ``sign nu``."""
    if k < 0:
        raise ValueError("the nu-Pochhammer product requires k >= 0")
    return tuple(range(sign, sign * k, sign))


@lru_cache(maxsize=64)
def nu_pochhammer(k: int) -> NuPolynomial:
    """The product ``(1 - nu)(1 - 2 nu) ... (1 - (k-1) nu)``, empty for k in {0, 1}."""
    return NuPolynomial(_linear_ints(_pochhammer_js(k)))


def _weight_ints(k: int, l: int, t: int, sign: int = 1, scale: int = 1) -> IntForm:
    """``scale nu^t / t! nu^(k+l-t) / (nu^(k) nu^(l))`` at ``sign nu`` in
    integer form, unreduced: the CP^n weight at ``sign = 1``, the disk
    weight at ``sign = -1``."""
    top = _linear_ints(_pochhammer_js(k + l - t, sign))
    nums = ((0, 0),) * t + tuple((scale * c, 0) for c in top)
    return nums, factorial(t), _pochhammer_js(k, sign) + _pochhammer_js(l, sign)


@lru_cache(maxsize=1024)
def _monic_product(js: tuple[int, ...]) -> NuPolynomial:
    """The product of ``nu - 1/j`` over ``js``: that of ``1 - j nu`` made monic."""
    return NuPolynomial(_linear_ints(js)).monic()


def _gauss_mul(a: GaussInts, b: GaussInts) -> list[list[int]]:
    """The product of two polynomials over the Gaussian integers."""
    out = [[0, 0] for _ in range(len(a) + len(b) - 1)]
    for i, (a_re, a_im) in enumerate(a):
        if not (a_re or a_im):
            continue
        for m, (b_re, b_im) in enumerate(b, i):
            cell = out[m]
            cell[0] += a_re * b_re - a_im * b_im
            cell[1] += a_re * b_im + a_im * b_re
    return out


IntForm = tuple[GaussInts, int, tuple[int, ...]]
"""``(nums, den, js)``: the value ``nums / (den prod(1 - j nu))``, with
``nums`` over the Gaussian integers, ``den`` a positive int and ``js`` a
multiset of nonzero ints, in any order; :func:`_reduced` makes it canonical."""


def _times(a: IntForm, b: IntForm) -> IntForm:
    """The product of two integer forms, its ``js`` sorted."""
    return _gauss_mul(a[0], b[0]), a[1] * b[1], tuple(sorted(a[2] + b[2]))


def _widen_into(total: list[list[int]], nums: GaussInts, scale: int, js: tuple[int, ...]) -> None:
    """Add ``scale`` times ``nums`` times the product of ``1 - j nu`` over
    the sorted ``js`` into ``total``, long enough to hold it, in place."""
    extra = _linear_ints(js)
    for i, (re, im) in enumerate(nums):
        if not (re or im):
            continue
        re *= scale
        im *= scale
        for m, c in enumerate(extra, i):
            cell = total[m]
            cell[0] += re * c
            cell[1] += im * c


def _union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The least sorted multiset holding both sorted tuples ``a`` and ``b``:
    each value as often as in whichever holds it more often."""
    out = []
    i = m = 0
    while i < len(a) and m < len(b):
        x, y = a[i], b[m]
        if x <= y:
            out.append(x)
            i += 1
            m += x == y
        else:
            out.append(y)
            m += 1
    out.extend(a[i:])
    out.extend(b[m:])
    return tuple(out)


def _difference(a: tuple[int, ...], b: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The sorted multiset ``a`` less ``b``, both sorted; None unless ``a``
    holds every element of ``b`` as often as ``b`` does."""
    out = []
    m = 0
    for x in a:
        if m < len(b) and b[m] == x:
            m += 1
        elif m < len(b) and b[m] < x:
            return None
        else:
            out.append(x)
    return tuple(out) if m == len(b) else None


def _sum(terms: Iterable[IntForm]) -> "NuRationalFunction":
    """The sum of integer forms with sorted ``js``, reduced once: every term
    is brought over the lcm of the ``den`` and the union of the ``js``, by
    integer multiples and integer linear products."""
    terms = list(terms)
    common: tuple[int, ...] = ()
    for _, _, js in terms:
        if js != common:
            common = _union(common, js)
    den = lcm(*(d for _, d, _ in terms))
    total = [[0, 0] for _ in range(max(len(nums) - len(js) for nums, _, js in terms) + len(common))]
    for nums, d, js in terms:
        _widen_into(total, nums, den // d, _difference(common, js))
    return NuRationalFunction._from_ints(total, den, common)


def _reduced(nums: GaussInts, den: int, js: Iterable[int]) -> IntForm:
    """The canonical form of ``nums / (den prod(1 - j nu))``.

    This is the one place where linear factors cancel.  ``nums`` vanishes
    at ``1/j`` exactly when ``sum_m nums[m] j^(d-m)`` does, d its degree,
    and then its quotient by ``1 - j nu`` has the integer coefficients
    ``Q_m = nums[m] + j Q_(m-1)`` (Gauss's lemma), the last of which is
    that sum.  What is left is divided by the gcd of ``den`` and every
    part, so the form is ``(nums, den, js)`` with ``nums`` a tuple of
    ``(re, im)`` pairs without a trailing zero pair, ``den > 0`` coprime to
    the parts and ``js`` sorted; zero is ``((), 1, ())``.
    """
    nums = list(nums)
    while nums and not (nums[-1][0] or nums[-1][1]):
        nums.pop()
    if not nums:
        return (), 1, ()
    kept: list[int] = []
    for j in sorted(js):
        if kept and kept[-1] == j:  # nums does not vanish at 1/j: no copy of j cancels
            kept.append(j)
            continue
        quotient = []
        q_re = q_im = 0
        for re, im in nums:
            q_re = re + j * q_re
            q_im = im + j * q_im
            quotient.append((q_re, q_im))
        if q_re or q_im:
            kept.append(j)
        else:
            quotient.pop()
            nums = quotient
    common = den
    for re, im in nums:
        if common == 1:
            return tuple((re, im) for re, im in nums), den, tuple(kept)
        common = gcd(common, re, im)
    return tuple((re // common, im // common) for re, im in nums), den // common, tuple(kept)


MAX_LOADED_DEGREE = 64
"""Largest degree of the numerator and of the denominator of a rational
function with a denominator that is not constant, when cpstar reads it from
JSON and when it writes it, so that what cpstar writes it can read back.
It admits every disk coefficient cpstar writes under
``expr.MAX_DISK_INDEX``: the largest measured, of f_{0,24} in the sum of the
chains f_{0,q}^(24/q), has degree 48 over 37.  The bound also keeps the
search for a split (:func:`_split_js`) short."""


def _check_degrees(num: int, den: int) -> None:
    """Refuse degree ``num`` over a denominator of degree ``den > 0`` when
    either is over :data:`MAX_LOADED_DEGREE`."""
    if den > 0 and max(num, den) > MAX_LOADED_DEGREE:
        raise ValueError(
            f"rational function of degree {num} over {den}: over a denominator that is not constant, "
            f"both degrees are limited to MAX_LOADED_DEGREE = {MAX_LOADED_DEGREE}"
        )


SPLIT_BOUND = 1 << 12
"""Largest ``|j|`` that :func:`_split_js` tries.  The disk's factors have
``|j|`` under ``expr.MAX_DISK_INDEX``, and a search this far takes about a
millisecond."""


def _split_js(den: Sequence[GaussRational]) -> Optional[tuple[int, ...]]:
    """The sorted ``js`` with ``den = den(0) prod(1 - j nu)`` over integers
    ``0 < |j| <= SPLIT_BOUND``, for the coefficients ``den``, lowest first;
    None when ``den`` is no such product, as when ``den(0) == 0``.

    Over ``den(0)`` the product has integer coefficients, the last of them
    ``prod(-j)``, so each j divides it; a candidate is a root exactly when
    synthetic division by ``1 - j nu``, ``Q_m = P_m + j Q_(m-1)``, leaves
    no remainder, as in :func:`_reduced`."""
    low = den[0]
    if not low:
        return None
    if len(den) == 1:
        return ()
    scale = GAUSS_ONE / low
    ints = []
    for c in den:
        p, q, m = (c * scale)._ints()
        if q or m != 1:
            return None
        ints.append(p)
    js = []
    j = 1
    while len(ints) > 1 and j <= min(SPLIT_BOUND, abs(ints[-1])):
        for root in (j, -j):
            while len(ints) > 1 and not ints[-1] % root:
                quotient = []
                acc = 0
                for p in ints:
                    acc = p + root * acc
                    quotient.append(acc)
                if quotient.pop():
                    break
                ints = quotient
                js.append(root)
        j += 1
    return tuple(sorted(js)) if len(ints) == 1 else None


class NuRationalFunction:
    """A rational function of ``nu`` over factors ``1 - j nu``, j a nonzero integer.

    It stores one thing: its canonical integer form ``(nums, den, js)``
    (:func:`_reduced`), the value ``nums / (den prod(1 - j nu))``; a
    constant denominator has ``js == ()``.  Sums and products, and their
    multiples by a polynomial or a scalar, are built in that form by
    :meth:`_from_ints` and compared as ints.  ``num`` and ``den`` are views
    of it, built afresh on every access: ``nums / (den prod(-j))`` and the
    monic ``prod(nu - 1/j)``.

    The constructor cancels a common power of ``nu``, splits the
    denominator (:func:`_split_js`) and reduces once.  A denominator that
    does not split over integers ``0 < |j| <= SPLIT_BOUND``, a pole at
    ``nu = 0`` included, raises ``ValueError``.
    """

    __slots__ = ("_form",)

    def __init__(self, num: NuPolynomial, den: NuPolynomial = NU_ONE) -> None:
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        nums, dens = num.coeffs, den.coeffs
        if not nums:
            object.__setattr__(self, "_form", ((), 1, ()))
            return
        low = 0
        while not (nums[low] or dens[low]):
            low += 1
        nums, dens = nums[low:], dens[low:]
        js = _split_js(dens)
        if js is None:
            raise ValueError(
                f"the denominator of degree {len(dens) - 1} does not split into factors 1 - j nu "
                f"over integers 0 < |j| <= {SPLIT_BOUND}"
            )
        if dens[0] != GAUSS_ONE:
            nums = [c / dens[0] for c in nums]
        d, ints = _poly_ints(nums)
        object.__setattr__(self, "_form", _reduced(ints, d, js))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NuRationalFunction is immutable")

    @classmethod
    def constant(cls, value: ScalarLike) -> "NuRationalFunction":
        return cls(NuPolynomial.constant(value))

    @classmethod
    def _from_ints(cls, nums: GaussInts, den: int, js: Iterable[int]) -> "NuRationalFunction":
        """``nums / (den prod(1 - j nu))``: Gaussian-integer coefficients
        ``nums`` (lowest first), a positive int ``den`` and a multiset ``js``
        of nonzero integers, stored as reduced by :func:`_reduced`."""
        value = object.__new__(cls)
        object.__setattr__(value, "_form", _reduced(nums, den, js))
        return value

    def _ints(self) -> IntForm:
        """The stored canonical form ``(nums, den, js)``."""
        return self._form

    @property
    def js(self) -> tuple[int, ...]:
        """The sorted nonzero ``j`` with ``den == prod(nu - 1/j)``, ``()``
        for the denominator 1."""
        return self._form[2]

    @property
    def num(self) -> NuPolynomial:
        """The numerator over the monic :attr:`den`."""
        nums, den, js = self._form
        lead = den * prod(-j for j in js)
        return NuPolynomial(_gauss(re, im, lead) for re, im in nums)

    @property
    def den(self) -> NuPolynomial:
        """The monic denominator."""
        return _monic_product(self._form[2])

    @classmethod
    def from_json(cls, data: dict) -> "NuRationalFunction":
        """Load ``{"num": [...], "den": [...]}``.  A denominator that is not
        constant is refused over :data:`MAX_LOADED_DEGREE`, and then by the
        constructor when it does not split."""
        num, den = (NuPolynomial.from_json(_required(data, key, "rational function", list)) for key in ("num", "den"))
        if den.is_zero():
            raise ValueError("rational function with zero denominator")
        _check_degrees(num.degree, den.degree)
        return cls(num, den)

    def _numerator_ints(self, js: tuple[int, ...]) -> tuple[int, GaussInts]:
        """The numerator over the product of ``1 - j nu`` over the sorted
        ``js``, as Gaussian integers over a positive denominator,
        ``(den, nums)``; ``ValueError`` unless ``js`` holds every factor of
        the value."""
        nums, den, own = self._form
        extra = _difference(js, own)
        if extra is None:
            raise ValueError(f"the factors {js} do not hold those of the denominator, {own}")
        total = [[0, 0] for _ in range(len(nums) + len(extra))]
        _widen_into(total, nums, 1, extra)
        return den, total

    def is_zero(self) -> bool:
        return not self._form[0]

    def __bool__(self) -> bool:
        return bool(self._form[0])

    def __add__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        if not isinstance(other, NuRationalFunction):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return _sum((self._form, other._form))

    def __sub__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        if not isinstance(other, NuRationalFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NuRationalFunction":
        """The same form with the numerator's signs flipped: still canonical."""
        nums, den, js = self._form
        value = object.__new__(NuRationalFunction)
        object.__setattr__(value, "_form", (tuple((-re, -im) for re, im in nums), den, js))
        return value

    def __mul__(self, other: Union["NuRationalFunction", NuPolynomial, ScalarLike]) -> "NuRationalFunction":
        if isinstance(other, (int, Fraction, GaussRational)):
            other = NuPolynomial.constant(other)
        if isinstance(other, NuPolynomial):
            other = NuRationalFunction(other)
        if not isinstance(other, NuRationalFunction):
            return NotImplemented
        return NuRationalFunction._from_ints(*_times(self._form, other._form))

    __rmul__ = __mul__

    def __truediv__(self, other: "NuRationalFunction") -> "NuRationalFunction":
        """Through the constructor: ``ValueError`` when the numerator of
        ``other`` does not split."""
        if isinstance(other, NuRationalFunction):
            if other.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            return NuRationalFunction(self.num * other.den, self.den * other.num)
        return NotImplemented

    def evaluate(self, alpha: ScalarLike) -> GaussRational:
        """The value at ``alpha = (a + b i)/m``, on the stored form: ``m^d``
        times the numerator, d its degree, is one Gaussian-integer Horner
        pass, and ``m^s`` times the denominator, s its number of factors, is
        ``den`` times the product of ``m - j (a + b i)``."""
        nums, den, js = self._form
        if not nums:
            return GAUSS_ZERO
        a, b, m = to_gauss(alpha)._ints()
        re, im = nums[-1]
        power = 1
        for c_re, c_im in reversed(nums[:-1]):
            power *= m
            re, im = re * a - im * b + c_re * power, re * b + im * a + c_im * power
        d_re, d_im = den, 0
        for j in js:
            c_re, c_im = m - j * a, -j * b
            d_re, d_im = d_re * c_re - d_im * c_im, d_re * c_im + d_im * c_re
        norm = d_re * d_re + d_im * d_im
        if not norm:
            raise ZeroDivisionError(f"denominator vanishes at nu = {alpha}")
        shift = len(js) - len(nums) + 1
        up, down = m ** max(shift, 0), m ** max(-shift, 0)
        return _gauss((re * d_re + im * d_im) * up, (im * d_re - re * d_im) * up, norm * down)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NuRationalFunction):
            return self._form == other._form
        if isinstance(other, (NuPolynomial, int, Fraction, GaussRational)):
            return self.js == () and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        # a polynomial value equals its numerator, so it hashes as that
        if self.js == ():
            return hash(self.num)
        return hash(self._form)

    def __repr__(self) -> str:
        return f"NuRationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.js == ():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json(self) -> dict:
        """``{"num": [...], "den": [...]}``, refused over
        :data:`MAX_LOADED_DEGREE` as the loader refuses it."""
        nums, _, js = self._form
        _check_degrees(len(nums) - 1, len(js))
        return {"num": self.num.to_json(), "den": self.den.to_json()}


NRF_ZERO = NuRationalFunction(NU_ZERO)
NRF_ONE = NuRationalFunction(NU_ONE)
