"""Expression language: parsing, rendering, and evaluation."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpstar import expr
from cpstar.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_ENTRIES,
    EvalError,
    ParseError,
    Session,
    evaluate,
    expression_to_text,
    parse,
)
from cpstar.expr import Name, Pointwise, Power, Quot, Scalar, Sigma, Star, Subst
from cpstar.models.disk import DiskElement
from cpstar.models.torus import FourierSum
from cpstar.nupoly import NU, NuRationalFunction
from cpstar.quotient import QuotientOperator, quotient_map, substitute
from cpstar.scalars import GaussRational
from cpstar.star import StarElement, star_elements
from cpstar.symbols import pointwise_mul, symbol_of_matrix


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


MATRIX_A = [[g(1), g(2)], [g(3), g(4)]]
MATRIX_B = [[g(0), g(1, 1)], [g(1, -1), g(2)]]


def _session(**bindings):
    session = Session(n=1)
    for name, value in bindings.items():
        session.bind(name, value)
    return session


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_shapes():
    assert parse("A") == Name("A")
    assert parse("sigma(A)") == Sigma("A")
    assert parse("3/4") == Scalar(Fraction(3, 4))
    assert parse("-2") == Scalar(Fraction(-2))
    assert parse("A * B") == Star(Name("A"), Name("B"))
    assert parse("A . B") == Pointwise(Name("A"), Name("B"))
    assert parse("A^3") == Power(Name("A"), 3)
    assert parse("subst(1/2)(A * B)") == Subst(
        Fraction(1, 2), Star(Name("A"), Name("B"))
    )
    assert parse("quot(2)(sigma(A))") == Quot(2, Sigma("A"))


def test_products_are_left_associative_at_one_level():
    assert parse("A * B * C") == Star(Star(Name("A"), Name("B")), Name("C"))
    assert parse("A . B * C") == Star(Pointwise(Name("A"), Name("B")), Name("C"))
    assert parse("A * B . C") == Pointwise(Star(Name("A"), Name("B")), Name("C"))


def test_power_binds_tighter_than_products():
    assert parse("A * B^2") == Star(Name("A"), Power(Name("B"), 2))
    assert parse("A^2 * B") == Star(Power(Name("A"), 2), Name("B"))
    assert parse("(A * B)^2") == Power(Star(Name("A"), Name("B")), 2)


def test_whitespace_is_insignificant():
    assert parse(" A*B ") == parse("A * B")
    assert parse("subst( 1/2 )( A )") == parse("subst(1/2)(A)")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("sigma(A")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse("A @ B")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("A B")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("2 ^")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("quot(x)(A)")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("subst(1/0)(A)")
    assert err.value.position == 8


def test_nesting_is_bounded():
    for wrap in ("({})", "subst(1/2)({})", "quot(1)({})"):
        text = "A"
        for _ in range(MAX_NESTING):
            text = wrap.format(text)
        parse(text)
        with pytest.raises(ParseError, match="nested deeper"):
            parse(wrap.format(text))


def test_render_round_trip_examples():
    for text in (
        "A",
        "sigma(A)",
        "(A * B)",
        "(sigma(A) . sigma(B))",
        "subst(-1/3)((A * unit))",
        "quot(3)(sigma(A))^2",
        "(A^2)^3",
        "A . B * (sigma(A) . B) . -1/2",
        "-5/7",
    ):
        tree = parse(text)
        assert parse(expression_to_text(tree)) == tree


def _chain(node):
    """A product chain as its first operand and its (kind, right operand)
    links, so chains too long for recursive == still compare."""
    links = []
    while isinstance(node, (Star, Pointwise)):
        links.append((type(node), node.right))
        node = node.left
    return node, links


def test_render_keeps_product_chains_flat():
    tree = parse(" * ".join(["A"] * 150))
    text = expression_to_text(tree)
    assert "(" not in text
    assert parse(text) == tree
    tree = parse(" * ".join(["1"] * 3000))
    text = expression_to_text(tree)
    assert "(" not in text
    assert _chain(parse(text)) == _chain(tree)
    tree = parse("a * (b * c)")
    assert expression_to_text(tree) == "a * (b * c)"
    assert parse(expression_to_text(tree)) == tree


_names = st.sampled_from(["A", "B", "f1", "x_2"])
_alphas = st.fractions(min_value=-5, max_value=5, max_denominator=9)
_leaves = st.one_of(
    st.builds(Name, _names),
    st.builds(Sigma, _names),
    st.builds(Scalar, _alphas),
)


def _extend(children):
    base = st.one_of(
        _leaves,
        st.builds(Star, children, children),
        st.builds(Pointwise, children, children),
        st.builds(Subst, _alphas, children),
        st.builds(Quot, st.integers(min_value=1, max_value=9), children),
    )
    return st.one_of(base, st.builds(Power, base, st.integers(min_value=0, max_value=4)))


_expressions = st.recursive(_leaves, _extend, max_leaves=12)


@given(_expressions)
def test_render_parse_round_trip(tree):
    assert parse(expression_to_text(tree)) == tree


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_session_default_bindings():
    session = Session(n=2)
    assert session.bindings["unit"] == StarElement.unit(2)
    assert session.bindings["nu"] == NuRationalFunction(NU)
    with pytest.raises(ValueError):
        session.bind("unit", g(1))


def test_scalar_arithmetic():
    session = _session()
    assert evaluate(parse("2 * 3/4"), session) == g(Fraction(3, 2))
    assert evaluate(parse("2^3"), session) == g(8)
    assert evaluate(parse("-1/2 * -1/2"), session) == g(Fraction(1, 4))


def test_sigma_builds_the_symbol():
    session = _session(A=MATRIX_A)
    assert evaluate(parse("sigma(A)"), session) == symbol_of_matrix(MATRIX_A)


def test_star_of_symbols_lifts_first():
    session = _session(A=MATRIX_A, B=MATRIX_B)
    value = evaluate(parse("sigma(A) * sigma(B)"), session)
    expected = star_elements(
        StarElement.lift(symbol_of_matrix(MATRIX_A)),
        StarElement.lift(symbol_of_matrix(MATRIX_B)),
    )
    assert value == expected


def test_pointwise_product_of_symbols():
    session = _session(A=MATRIX_A, B=MATRIX_B)
    value = evaluate(parse("sigma(A) . sigma(B)"), session)
    assert value == pointwise_mul(symbol_of_matrix(MATRIX_A), symbol_of_matrix(MATRIX_B))


def test_star_power_of_a_symbol():
    session = _session(A=MATRIX_A)
    lifted = StarElement.lift(symbol_of_matrix(MATRIX_A))
    expected = star_elements(star_elements(StarElement.unit(1), lifted), lifted)
    assert evaluate(parse("sigma(A)^2"), session) == expected
    assert evaluate(parse("sigma(A)^0"), session) == StarElement.unit(1)


def test_nu_times_unit_shifts_the_level():
    session = _session()
    value = evaluate(parse("nu * unit"), session)
    assert value == StarElement.unit(1).nu_shift(1)
    squared = evaluate(parse("nu^2 * unit"), session)
    assert squared == StarElement.unit(1).nu_shift(2)


def test_rational_scale_of_a_symbol_stays_a_symbol():
    session = _session(A=MATRIX_A)
    value = evaluate(parse("2 * sigma(A)"), session)
    assert value == symbol_of_matrix(MATRIX_A).scale(g(2))


def test_substitution_forms():
    session = _session(A=MATRIX_A)
    assert evaluate(parse("subst(1/2)(nu)"), session) == g(Fraction(1, 2))
    value = evaluate(parse("subst(1/3)(sigma(A))"), session)
    expected = substitute(StarElement.lift(symbol_of_matrix(MATRIX_A)), Fraction(1, 3))
    assert value == expected


def test_quotient_form():
    session = _session(A=MATRIX_A)
    value = evaluate(parse("quot(2)(sigma(A))"), session)
    expected = quotient_map(StarElement.lift(symbol_of_matrix(MATRIX_A)), 2)
    assert isinstance(value, QuotientOperator)
    assert value == expected


def test_evaluation_errors():
    session = _session(A=MATRIX_A)
    with pytest.raises(EvalError):
        evaluate(parse("missing"), session)
    with pytest.raises(EvalError):
        evaluate(parse("sigma(nu)"), session)
    with pytest.raises(EvalError):
        evaluate(parse("A * A"), session)  # matrices never star directly
    with pytest.raises(EvalError):
        evaluate(parse("subst(1/2)(2)"), session)
    with pytest.raises(EvalError):
        evaluate(parse("quot(2)(nu)"), session)
    with pytest.raises(EvalError):
        evaluate(parse("unit^2 . unit"), session)


def _refuse(*args):
    raise AssertionError("a refused power ran a product")


def test_powers_over_the_exponent_limit_are_refused(monkeypatch):
    torus = FourierSum.mode(2, [[0, 1], [-1, 0]], Fraction(1, 3), (1, 0), Fraction(3, 2))
    session = _session(A=MATRIX_A, D=DiskElement.unit(), T=torus)
    assert evaluate(parse(f"2^{MAX_EXPONENT}"), session) == g(2**MAX_EXPONENT)
    assert evaluate(parse(f"(1/2)^{MAX_EXPONENT}"), session) == g(Fraction(1, 2**MAX_EXPONENT))
    for name in ("star_elements", "moyal_product", "disk_product"):
        monkeypatch.setattr(expr, name, _refuse)
    for base in ("2", "nu", "D", "T", "sigma(A)", "unit"):
        with pytest.raises(EvalError, match=f"exceeds the limit of {MAX_EXPONENT}"):
            evaluate(parse(f"{base}^{MAX_EXPONENT + 1}"), session)


def test_star_powers_over_the_entry_budget_are_refused(monkeypatch):
    # a level-1 factor on CP^3: the 6th power's top component has up to
    # C(9, 3)^2 entries, the 7th power's C(10, 3)^2
    assert comb(9, 3) ** 2 <= MAX_POWER_ENTRIES < comb(10, 3) ** 2
    matrix = [[g(i - j, (i * j) % 3) for j in range(4)] for i in range(4)]
    session = Session(n=3)
    session.bind("A", matrix)
    lifted = StarElement.lift(symbol_of_matrix(matrix))
    session.bind("E", lifted)
    expected = StarElement.unit(3)
    for _ in range(6):
        expected = star_elements(expected, lifted)
    assert evaluate(parse("sigma(A)^6"), session) == expected
    monkeypatch.setattr(expr, "star_elements", _refuse)
    for text in ("sigma(A)^7", "E^7"):
        with pytest.raises(EvalError, match=f"over the limit of {MAX_POWER_ENTRIES}"):
            evaluate(parse(text), session)


def test_evaluation_is_deterministic():
    text = "subst(1/5)(sigma(A) * sigma(B) * sigma(A))"
    first = evaluate(parse(text), _session(A=MATRIX_A, B=MATRIX_B))
    second = evaluate(parse(text), _session(A=MATRIX_A, B=MATRIX_B))
    assert first == second
