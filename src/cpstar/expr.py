"""Expression language for the command line.

Grammar, with ``*`` the star product and ``.`` the pointwise product::

    expr   := term (('*' | '.') term)*
    term   := factor ('^' integer)?
    factor := identifier
            | 'sigma' '(' identifier ')'
            | 'subst' '(' scalar ')' '(' expr ')'
            | 'quot' '(' integer ')' '(' expr ')'
            | '(' expr ')'
            | scalar

Products are left-associative, ``^`` is the star power, and scalars are
(optionally signed) rational literals.  Parsing is recursive descent over
tokens made one at a time, at most :data:`MAX_NESTING` parentheses or
bodies deep and with integer literals of at most :data:`MAX_LITERAL_DIGITS`
digits; errors carry the character position.

Evaluation dispatches on the runtime types of the operands, here and only
here: ``eval`` and the ``star``, ``torus``, ``disk``, ``quotient`` and
``subst`` subcommands all call :func:`star_values`, :func:`fold_value` and
:func:`substitute_value`, so each refuses the same input with the same
message.  Symbols are lifted into the filtered algebra before starring,
scalars multiply anything, and the torus and disk values use their own
products.  A power is refused before any product runs when its exponent
exceeds :data:`MAX_EXPONENT`; for a symbol or filtered element, when its
top component would exceed :data:`MAX_POWER_ENTRIES` entries; for a disk
element, when it would reach a basis index over :data:`MAX_DISK_INDEX`; and
for a Fourier sum, when it could hold more than :data:`MAX_POWER_MODES`
modes.  Every ``*`` is refused before it runs by the same bounds on its two
operands, so a chain of products cannot outgrow the powers, and every fold
to level K by the entry bound on its operator tensor.  Each product of
filtered elements, alone or as a step of a power, is also refused before
it runs when a bound on its contraction terms from the cell counts of its
components exceeds :data:`MAX_STAR_TERMS`.  A pointwise ``.`` of symbols of
degrees k and l on CP^n is refused before it runs when its degree-(k + l)
result could hold more than :data:`MAX_POWER_ENTRIES` entries, or when the
``a b`` terms it runs for factors of ``a`` and ``b`` cells exceed
:data:`MAX_STAR_TERMS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb
from typing import Iterator, Union

from .models.disk import DiskElement, disk_product
from .models.torus import FourierSum, moyal_product, torus_quotient
from .nupoly import NU, NU_ONE, NuRationalFunction
from .quotient import QuotientOperator, quotient_map, substitute
from .scalars import GaussRational, _digit_limit
from .star import StarElement, _combined, star_elements
from .symbols import SymbolTensor, pointwise_mul, symbol_of_matrix

__all__ = [
    "MAX_DISK_INDEX",
    "MAX_EXPONENT",
    "MAX_LITERAL_DIGITS",
    "MAX_NESTING",
    "MAX_POWER_ENTRIES",
    "MAX_POWER_MODES",
    "MAX_STAR_TERMS",
    "ParseError",
    "EvalError",
    "parse",
    "Session",
    "evaluate",
    "expression_to_text",
    "fold_value",
    "star_values",
    "substitute_value",
]


class ParseError(ValueError):
    """Syntax error with the character position where parsing stopped."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


class EvalError(TypeError):
    """Evaluation failure: unbound name or ill-typed operation."""


# -- abstract syntax ---------------------------------------------------


@dataclass(frozen=True)
class Name:
    identifier: str


@dataclass(frozen=True)
class Sigma:
    identifier: str


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class Star:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pointwise:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Subst:
    alpha: Fraction
    body: "Expression"


@dataclass(frozen=True)
class Quot:
    K: int
    body: "Expression"


Expression = Union[Name, Sigma, Scalar, Star, Pointwise, Power, Subst, Quot]


# -- tokens ------------------------------------------------------------

MAX_NESTING = 100
"""Deepest nesting of parentheses and subst/quot bodies the parser accepts."""

MAX_LITERAL_DIGITS = 4300
"""Longest integer literal (numerator, denominator, exponent or quotient
level) the parser accepts, in decimal digits: CPython's default limit for
converting a digit string to an int.  A smaller limit set for the
interpreter (``-X int_max_str_digits``) applies in its place."""

MAX_EXPONENT = 8
"""Largest ``^`` exponent :func:`evaluate` computes, for every base.  A power
repeats its product that many times, and disk powers grow fastest: on a
2-core x86-64 VM with Python 3.11, the 8th power of the sum of the 16 disk
basis functions of index up to 3 took 1.1 s (2.7 s with the f-basis product
that came before the Weyl-basis one, timed one after the other)."""

MAX_POWER_ENTRIES = 10_000
"""Largest tensor a star power, star product or fold of symbols or filtered
elements may reach, in entries, in ``eval`` and the ``star`` and ``quotient``
subcommands alike: ``e`` factors of level ``L`` on CP^n land
at level ``e L``, whose top component has up to ``C(n + e L, n) ** 2``
entries, two of levels ``k`` and ``l`` land at level ``k + l``, and the fold
``quot(K)`` on CP^n makes a degree-K operator tensor of ``C(n + K, n) ** 2``
entries."""

MAX_STAR_TERMS = 2_000_000
"""Largest number of contraction terms one star product of filtered
elements, or one pointwise ``.`` of symbols, may run, in ``eval`` and the
``star`` subcommand alike, bounded from the cell counts before it runs: a
component pair of degrees ``r`` and ``s`` with ``a`` and ``b`` cells adds
at most ``a b C(n + t, t)`` terms at each contraction order
``t <= m = min(r, s)``, so ``a b C(n + m + 1, m)`` in all, and a pointwise
product runs ``a b``.  The entry bound :data:`MAX_POWER_ENTRIES` sees only
the size of the result, not this work.  On a 2-core x86-64 VM with Python
3.11.7, a CP^1 product of two random level-12 elements
(``randgen.random_element``, density 0.3, seeds 7 and 8, 262 and 221
cells, a bound of 2.6 million) took 0.29 to 0.44 s (seven runs), and one
of two level-20 elements (seeds 7 and 8, 1005 and 950 cells, a bound of
106 million, a level-40 result of at most 1681 entries) 16.4 to 19.4 s
(three runs)."""

MAX_DISK_INDEX = 24
"""Largest basis index a star power or product of disk elements may reach,
in ``eval`` and the ``star`` and ``disk`` subcommands alike: ``e`` factors
whose largest index (``p`` or ``q``) is ``P`` reach index ``e P``, with up to
``(e P + 1) ** 2`` basis functions, and two of largest indices ``P`` and
``Q`` reach ``P + Q``.  On the VM above, with the Weyl-basis product,
powers of elements with every basis function up to index ``P`` (the sum of
the ``f_{p,q}`` with ``p, q <= P``, each in a fresh process) that reach
index 24 took 0.5 to 2.0 s (P = 3, 4, 6, 8, 12; 2.7 to 6.4 s with the
f-basis product before it), index 20 0.2 to 0.8 s (P = 4, 5, 10) and
index 28 1.4 to 5.2 s (P = 4, 7, 14).  The bound stays at 24 because
:data:`cpstar.nupoly.MAX_LOADED_DEGREE` is sized for the coefficients that
index 24 reaches."""

MAX_POWER_MODES = 2_000
"""Largest number of modes a star power or product of Fourier sums may
reach, in ``eval`` and the ``star`` and ``torus`` subcommands alike: the
modes of the ``e``-th power of ``T`` modes are sums of ``e`` of them, at most
``C(T + e - 1, e)``, and the product of ``T1`` and ``T2`` modes has at most
``T1 T2``.  On the VM above, the 8th power of 6 modes (1287 modes) took
3.1 s; on a 2-core VM with Python 3.11.7, one product of 40 and 50 distinct
modes, each coefficient of one to three phases, took 0.11 to 0.46 s."""

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<punct>[*.^()/-]))"
)
_UNEXPECTED_RE = re.compile(r"[^\sA-Za-z_\d*.^()/-]")
"""The first character that is neither white space nor part of a token:
every token consists of these characters, and each of them starts one."""


@dataclass
class _Token:
    kind: str
    text: str
    position: int


def _tokens(text: str) -> Iterator[_Token]:
    """The tokens of ``text``, made one at a time as the parser reads them.
    A character no token can hold is refused up front, before any is made."""
    unexpected = _UNEXPECTED_RE.search(text)
    if unexpected is not None:
        raise ParseError(f"unexpected character {unexpected.group()!r}", unexpected.start())
    return (
        _Token(match.lastgroup, match[match.lastgroup], match.start(match.lastgroup))
        for match in _TOKEN_RE.finditer(text)
    )


class _Parser:
    """Recursive descent with one token of lookahead, ``token`` (None at the end)."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokens(text)
        self.token = next(self.tokens, None)
        self.depth = 0

    def _next_position(self) -> int:
        token = self.token
        return len(self.text) if token is None else token.position

    def _advance(self) -> _Token:
        token = self.token
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.token = next(self.tokens, None)
        return token

    def _expect(self, text: str, description: str) -> _Token:
        token = self.token
        if token is None or token.text != text:
            raise ParseError(f"expected {description}", self._next_position())
        return self._advance()

    def _integer(self, token: _Token) -> int:
        """The value of an integer token, refused over :data:`MAX_LITERAL_DIGITS`
        digits or over the interpreter's digit limit, if that is smaller."""
        limit = min(MAX_LITERAL_DIGITS, _digit_limit() or MAX_LITERAL_DIGITS)
        if len(token.text) > limit:
            message = f"integer literal of {len(token.text)} digits exceeds the limit of {limit}"
            raise ParseError(message, token.position)
        return int(token.text)

    def parse(self) -> Expression:
        node = self._expr()
        token = self.token
        if token is not None:
            raise ParseError(f"unexpected {token.text!r}", token.position)
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while True:
            token = self.token
            if token is None or token.text not in ("*", "."):
                return node
            self._advance()
            right = self._term()
            node = Star(node, right) if token.text == "*" else Pointwise(node, right)

    def _nested_expr(self) -> Expression:
        """An expression one nesting level down, within :data:`MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", self._next_position()
            )
        self.depth += 1
        node = self._expr()
        self.depth -= 1
        return node

    def _term(self) -> Expression:
        node = self._factor()
        token = self.token
        if token is not None and token.text == "^":
            self._advance()
            value = self.token
            if value is None or value.kind != "int":
                raise ParseError("expected an integer exponent", self._next_position())
            self._advance()
            node = Power(node, self._integer(value))
        return node

    def _scalar(self) -> Fraction:
        sign = 1
        token = self.token
        if token is not None and token.text == "-":
            self._advance()
            sign = -1
            token = self.token
        if token is None or token.kind != "int":
            raise ParseError("expected a rational scalar", self._next_position())
        self._advance()
        numerator = self._integer(token)
        nxt = self.token
        if nxt is not None and nxt.text == "/":
            self._advance()
            den = self.token
            if den is None or den.kind != "int":
                raise ParseError("expected a denominator", self._next_position())
            self._advance()
            denominator = self._integer(den)
            if not denominator:
                raise ParseError("zero denominator", den.position)
            return Fraction(sign * numerator, denominator)
        return Fraction(sign * numerator)

    def _factor(self) -> Expression:
        token = self.token
        if token is None:
            raise ParseError("expected an expression", len(self.text))
        if token.kind == "ident":
            self._advance()
            if token.text == "sigma":
                self._expect("(", "'(' after sigma")
                name = self.token
                if name is None or name.kind != "ident":
                    raise ParseError("expected a matrix name", self._next_position())
                self._advance()
                self._expect(")", "')'")
                return Sigma(name.text)
            if token.text == "subst":
                self._expect("(", "'(' after subst")
                alpha = self._scalar()
                self._expect(")", "')'")
                self._expect("(", "'(' before the substitution body")
                body = self._nested_expr()
                self._expect(")", "')'")
                return Subst(alpha, body)
            if token.text == "quot":
                self._expect("(", "'(' after quot")
                value = self.token
                if value is None or value.kind != "int":
                    raise ParseError("expected a positive integer", self._next_position())
                self._advance()
                self._expect(")", "')'")
                self._expect("(", "'(' before the quotient body")
                body = self._nested_expr()
                self._expect(")", "')'")
                return Quot(self._integer(value), body)
            return Name(token.text)
        if token.text == "(":
            self._advance()
            node = self._nested_expr()
            self._expect(")", "')'")
            return node
        if token.kind == "int" or token.text == "-":
            return Scalar(self._scalar())
        raise ParseError(f"unexpected {token.text!r}", token.position)


def parse(text: str) -> Expression:
    """Parse an expression, raising :class:`ParseError` with a position."""
    return _Parser(text).parse()


def expression_to_text(node: Expression) -> str:
    """Render an abstract syntax tree back to parseable text; a product chain
    renders flat, in a loop, with parentheses only where parsing needs them."""
    if isinstance(node, Name):
        return node.identifier
    if isinstance(node, Sigma):
        return f"sigma({node.identifier})"
    if isinstance(node, Scalar):
        return str(node.value)
    if isinstance(node, (Star, Pointwise)):
        links = []
        while isinstance(node, (Star, Pointwise)):
            right = expression_to_text(node.right)
            if isinstance(node.right, (Star, Pointwise)):
                right = f"({right})"
            links.append(f" {'*' if isinstance(node, Star) else '.'} {right}")
            node = node.left
        return expression_to_text(node) + "".join(reversed(links))
    if isinstance(node, Power):
        base = expression_to_text(node.base)
        if isinstance(node.base, (Star, Pointwise, Power)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Subst):
        return f"subst({node.alpha})({expression_to_text(node.body)})"
    if isinstance(node, Quot):
        return f"quot({node.K})({expression_to_text(node.body)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------

Value = Union[
    GaussRational,
    NuRationalFunction,
    list,  # matrix: list of rows of GaussRational
    SymbolTensor,
    StarElement,
    QuotientOperator,
    FourierSum,
    DiskElement,
]


@dataclass
class Session:
    """Named inputs, the dimension n, and the seed echoed in ``eval`` output."""

    bindings: dict[str, Value] = field(default_factory=dict)
    n: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        self.bindings.setdefault("unit", StarElement.unit(self.n))
        self.bindings.setdefault("nu", NuRationalFunction(NU))

    def bind(self, name: str, value: Value) -> None:
        if name in self.bindings:
            raise ValueError(f"identifier {name!r} already bound")
        self.bindings[name] = value


def _is_scalar(value: Value) -> bool:
    return isinstance(value, (GaussRational, NuRationalFunction))


def _is_matrix(value: Value) -> bool:
    return isinstance(value, list)


def _lift(value: SymbolTensor | StarElement) -> StarElement:
    return StarElement.lift(value) if isinstance(value, SymbolTensor) else value


def _scale(scalar: Value, value: Value) -> Value:
    if _is_scalar(value):
        if isinstance(scalar, NuRationalFunction) or isinstance(value, NuRationalFunction):
            left = scalar if isinstance(scalar, NuRationalFunction) else NuRationalFunction.constant(scalar)
            right = value if isinstance(value, NuRationalFunction) else NuRationalFunction.constant(value)
            return left * right
        return scalar * value
    if isinstance(value, SymbolTensor):
        if isinstance(scalar, GaussRational):
            return value.scale(scalar)
        value = StarElement.lift(value)
    if isinstance(value, StarElement):
        if isinstance(scalar, GaussRational):
            return value.scale(scalar)
        if scalar.den != NU_ONE:
            raise EvalError("only polynomial-in-nu multiples act on filtered elements")
        coeffs = scalar.num.coeffs
        if not coeffs:
            return value.scale(0)
        return _combined(value.n, value.level + len(coeffs) - 1, [(value.nu_shift(j), c) for j, c in enumerate(coeffs)])
    if isinstance(value, DiskElement):
        return value.scale(scalar)
    if isinstance(value, FourierSum):
        if isinstance(scalar, GaussRational) and scalar.is_real:
            return value.scale(scalar.re)
        raise EvalError("torus sums scale by real rationals only")
    if _is_matrix(value) and isinstance(scalar, GaussRational):
        return [[cell * scalar for cell in row] for row in value]
    raise EvalError(
        f"cannot scale a {type(value).__name__} by a {type(scalar).__name__}"
    )


def _check_entries(n: int, level: int, what: str) -> None:
    """Refuse a product of level ``level`` on CP^n over :data:`MAX_POWER_ENTRIES`."""
    entries = comb(n + level, n) ** 2
    if entries > MAX_POWER_ENTRIES:
        # past 64 bits the count is not written out: it may be too long to convert
        count = f"up to {entries}" if entries.bit_length() <= 64 else "over 2**64"
        raise EvalError(f"{what} has {count} entries in its top component, over the limit of {MAX_POWER_ENTRIES}")


def _star_within_budget(left: StarElement, right: StarElement, what: str) -> StarElement:
    """``star_elements(left, right)``, refused before it runs over :data:`MAX_STAR_TERMS`."""
    n = left.n
    terms = sum(
        len(phi.cells) * len(psi.cells) * comb(n + min(r, s) + 1, min(r, s))
        for r, phi in left.components.items()
        for s, psi in right.components.items()
    )
    _check_terms(terms, what)
    return star_elements(left, right)


def _check_terms(terms: int, what: str) -> None:
    """Refuse a product of up to ``terms`` contraction terms over :data:`MAX_STAR_TERMS`."""
    if terms > MAX_STAR_TERMS:
        count = f"up to {terms}" if terms.bit_length() <= 64 else "over 2**64"
        raise EvalError(f"{what} runs {count} contraction terms, over the limit of MAX_STAR_TERMS = {MAX_STAR_TERMS}")


def _check_modes(modes: int, what: str) -> None:
    """Refuse a Fourier product of up to ``modes`` modes over :data:`MAX_POWER_MODES`."""
    if modes > MAX_POWER_MODES:
        raise EvalError(f"{what} has up to {modes} modes, over the limit of {MAX_POWER_MODES}")


def _largest_index(element: DiskElement) -> int:
    return max((max(key) for key in element.coeffs), default=0)


def _check_disk_index(index: int, what: str) -> None:
    """Refuse a disk product reaching basis index ``index`` over :data:`MAX_DISK_INDEX`."""
    if index > MAX_DISK_INDEX:
        raise EvalError(f"{what} reaches index {index}, over the limit of {MAX_DISK_INDEX}")


def star_values(left: Value, right: Value) -> Value:
    """The ``*`` of two values, refused before it runs over the budget of their type."""
    if _is_scalar(left):
        return _scale(left, right)
    if _is_scalar(right):
        return _scale(right, left)
    if isinstance(left, FourierSum) and isinstance(right, FourierSum):
        a, b = len(left.coeffs), len(right.coeffs)
        _check_modes(a * b, f"the star product of Fourier sums of {a} and {b} modes")
        return moyal_product(left, right)
    if isinstance(left, DiskElement) and isinstance(right, DiskElement):
        a, b = _largest_index(left), _largest_index(right)
        what = f"the star product of disk elements of largest basis indices {a} and {b}"
        _check_disk_index(a + b, what)
        return disk_product(left, right)
    if isinstance(left, (SymbolTensor, StarElement)) and isinstance(
        right, (SymbolTensor, StarElement)
    ):
        left, right = _lift(left), _lift(right)
        what = f"the star product of levels {left.level} and {right.level} on CP^{left.n}"
        _check_entries(left.n, left.level + right.level, what)
        return _star_within_budget(left, right, what)
    raise EvalError(
        f"no star product between {type(left).__name__} and {type(right).__name__}"
    )


def _pointwise(left: Value, right: Value) -> Value:
    if _is_scalar(left):
        return _scale(left, right)
    if _is_scalar(right):
        return _scale(right, left)
    if isinstance(left, SymbolTensor) and isinstance(right, SymbolTensor):
        if left.n == right.n:
            what = f"the pointwise product of degrees {left.k} and {right.k} on CP^{left.n}"
            _check_entries(left.n, left.k + right.k, what)
            # the order-0 contraction runs one term per pair of cells
            _check_terms(len(left.cells) * len(right.cells), what)
        return pointwise_mul(left, right)
    raise EvalError(
        f"no pointwise product between {type(left).__name__} and {type(right).__name__}"
    )


def _power(base: Value, exponent: int) -> Value:
    """The ``^`` of a value: refused up front over the budget of its type, then
    one loop of its type's product, which meets no two-operand bound of ``*``."""
    if exponent < 0:
        raise EvalError("negative powers are not defined")
    if exponent > MAX_EXPONENT:
        raise EvalError(f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}")
    if _is_scalar(base):
        result, product = GaussRational(1), _scale
    elif isinstance(base, (SymbolTensor, StarElement)):
        base = _lift(base)
        what = f"power {exponent} of a level-{base.level} element on CP^{base.n}"
        _check_entries(base.n, exponent * base.level, what)
        result, product = StarElement.unit(base.n), partial(_star_within_budget, what=f"a product in the {what}")
    elif isinstance(base, FourierSum):
        modes = comb(len(base.coeffs) + exponent - 1, exponent) if base.coeffs else 0
        _check_modes(modes, f"power {exponent} of a Fourier sum of {len(base.coeffs)} modes")
        result = FourierSum.mode(base.dim, base.matrix, base.parameter, (0,) * base.dim)
        product = moyal_product
    elif isinstance(base, DiskElement):
        largest = _largest_index(base)
        what = f"power {exponent} of a disk element of largest basis index {largest}"
        _check_disk_index(exponent * largest, what)
        result, product = DiskElement.unit(), disk_product
    else:
        raise EvalError(f"no star power for {type(base).__name__}")
    for _ in range(exponent):
        result = product(result, base)
    return result


def substitute_value(value: Value, alpha: Fraction) -> Value:
    """``subst(alpha)`` of a rational function, symbol or filtered element."""
    if isinstance(value, NuRationalFunction):
        try:
            return value.evaluate(alpha)
        except ZeroDivisionError as exc:
            raise EvalError(f"cannot substitute: {exc}") from None
    if isinstance(value, (SymbolTensor, StarElement)):
        return substitute(_lift(value), alpha)
    raise EvalError(f"cannot substitute into {type(value).__name__}")


def fold_value(value: Value, K: int) -> Value:
    """``quot(K)`` of a Fourier sum (mod K), or of a symbol or filtered element
    on CP^n, refused before it runs when its C(n + K, n)^2-entry operator
    tensor is over :data:`MAX_POWER_ENTRIES`."""
    if isinstance(value, FourierSum):
        return torus_quotient(value, K)
    if not isinstance(value, (SymbolTensor, StarElement)):
        raise EvalError(f"cannot fold {type(value).__name__} to the quotient")
    element = _lift(value)
    _check_entries(element.n, K, f"the fold to level {K} on CP^{element.n}")
    return quotient_map(element, K)


def evaluate(node: Expression, session: Session) -> Value:
    """Evaluate an expression in a session, deterministically."""
    if isinstance(node, Name):
        try:
            return session.bindings[node.identifier]
        except KeyError:
            raise EvalError(f"unbound identifier {node.identifier!r}") from None
    if isinstance(node, Sigma):
        matrix = evaluate(Name(node.identifier), session)
        if not _is_matrix(matrix):
            raise EvalError(f"sigma expects a matrix, got {type(matrix).__name__}")
        return symbol_of_matrix(matrix)
    if isinstance(node, Scalar):
        return GaussRational(node.value)
    if isinstance(node, (Star, Pointwise)):
        # walk the left spine of a product chain iteratively, however long it is
        chain = []
        while isinstance(node, (Star, Pointwise)):
            chain.append(node)
            node = node.left
        value = evaluate(node, session)
        for link in reversed(chain):
            right = evaluate(link.right, session)
            value = star_values(value, right) if isinstance(link, Star) else _pointwise(value, right)
        return value
    if isinstance(node, Power):
        return _power(evaluate(node.base, session), node.exponent)
    if isinstance(node, Subst):
        return substitute_value(evaluate(node.body, session), node.alpha)
    if isinstance(node, Quot):
        value = evaluate(node.body, session)
        if isinstance(value, FourierSum):
            # eval has no wire type for a folded torus element; the torus subcommand writes one
            raise EvalError(
                f"eval cannot write a folded Fourier sum; fold a torus product with 'cpstar torus --K {node.K}'"
            )
        return fold_value(value, node.K)
    raise TypeError(f"not an expression node: {node!r}")
