"""Command-line interface: subcommands, formats, and exit codes."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cpstar
from cpstar import expr
from cpstar.checks import CheckReport
from cpstar.cli import main, tagged_to_value, value_to_tagged
from cpstar.models.disk import DiskElement, disk_product
from cpstar.models.torus import FourierSum, PhaseSum, moyal_product
from cpstar.quotient import quotient_map, substitute
from cpstar.randgen import random_element, random_symbol
from cpstar.scalars import GaussRational
from cpstar.serialize import (
    disk_to_json,
    element_to_json,
    fourier_from_json,
    fourier_to_json,
    matrix_to_json,
)
from cpstar.star import StarElement, star_elements
from cpstar.symbols import SymbolTensor, symbol_of_matrix

SYMPLECTIC = [[0, 1], [-1, 0]]


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


MATRIX_A = [[g(1), g(0)], [g(0), g(0)]]
MATRIX_B = [[g(0), g(0)], [g(0), g(1)]]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_of_two_matrices(tmp_path, capsys):
    path = _write(
        tmp_path,
        "pair.json",
        {"left": matrix_to_json(MATRIX_A), "right": matrix_to_json(MATRIX_B)},
    )
    code, out, err = _run(capsys, ["star", "--input", path])
    assert code == 0 and err == ""
    expected = star_elements(
        StarElement.lift(symbol_of_matrix(MATRIX_A)),
        StarElement.lift(symbol_of_matrix(MATRIX_B)),
    )
    assert json.loads(out) == value_to_tagged(expected)


def test_star_accepts_tagged_values_and_stdin(capsys, monkeypatch):
    payload = {
        "left": {"type": "matrix", "value": matrix_to_json(MATRIX_A)},
        "right": {"type": "matrix", "value": matrix_to_json(MATRIX_B)},
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out, err = _run(capsys, ["star"])
    assert code == 0
    assert json.loads(out)["type"] == "element"


def test_star_writes_canonical_output_file(tmp_path, capsys):
    path = _write(
        tmp_path,
        "pair.json",
        {"left": matrix_to_json(MATRIX_A), "right": matrix_to_json(MATRIX_A)},
    )
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, ["star", "--input", path, "--output", str(out_path)])
    assert code == 0 and out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text


def test_star_of_fourier_pair(tmp_path, capsys):
    left = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (1, 0))
    right = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (0, 1))
    path = _write(
        tmp_path,
        "pair.json",
        {"left": fourier_to_json(left), "right": fourier_to_json(right)},
    )
    code, out, _ = _run(capsys, ["star", "--input", path])
    assert code == 0
    assert json.loads(out) == value_to_tagged(moyal_product(left, right))


def test_star_rejects_malformed_pair(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"left": matrix_to_json(MATRIX_A)})
    code, _, err = _run(capsys, ["star", "--input", path])
    assert code == 2
    assert "left" in err and "right" in err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["star", "--input", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["star", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_star_refuses_parts_over_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 1)
    for part, count in [
        (digits, limit + 1),
        (f"-1/{digits}", limit + 1),
        (f" {digits}.5", limit + 1),
    ]:
        left = matrix_to_json(MATRIX_A)
        left[1][0] = {"re": "0", "im": part}
        path = _write(tmp_path, "pair.json", {"left": left, "right": matrix_to_json(MATRIX_B)})
        code, out, err = _run(capsys, ["star", "--input", path])
        assert (code, out) == (2, "")
        assert err == f"cpstar: rational with a number of {count} digits, over the limit of {limit}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_star_refuses_decimal_exponents_over_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    for part, exponent in [("1e99999999", 99999999), (" -2.5E-99999999", -99999999), (f"1e{limit + 1}", limit + 1)]:
        left = matrix_to_json(MATRIX_A)
        left[1][0] = {"re": part, "im": "0"}
        path = _write(tmp_path, "pair.json", {"left": left, "right": matrix_to_json(MATRIX_B)})
        code, out, err = _run(capsys, ["star", "--input", path])
        assert (code, out) == (2, "")
        assert err == f"cpstar: rational with a decimal exponent of {exponent}, beyond the limit of {limit}\n"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_with_session_bindings(tmp_path, capsys):
    session = _write(
        tmp_path,
        "session.json",
        {
            "n": 1,
            "seed": 5,
            "bindings": {
                "A": {"type": "matrix", "value": matrix_to_json(MATRIX_A)},
                "B": matrix_to_json(MATRIX_B),
            },
        },
    )
    code, out, _ = _run(
        capsys, ["eval", "sigma(A) * sigma(B)", "--input", session]
    )
    assert code == 0
    data = json.loads(out)
    assert data["expression"] == "sigma(A) * sigma(B)"
    assert data["n"] == 1 and data["seed"] == 5
    expected = star_elements(
        StarElement.lift(symbol_of_matrix(MATRIX_A)),
        StarElement.lift(symbol_of_matrix(MATRIX_B)),
    )
    assert data["result"] == value_to_tagged(expected)


def test_eval_without_session(capsys):
    code, out, _ = _run(capsys, ["eval", "nu * unit"])
    assert code == 0
    data = json.loads(out)
    assert data["result"] == value_to_tagged(StarElement.unit(1).nu_shift(1))


def test_eval_prints_one_zero_multiple_for_a_scalar_or_a_nu_polynomial(capsys):
    outputs = []
    for expression in ("0 * (nu * unit)", "(0 * nu) * (nu * unit)"):
        code, out, _ = _run(capsys, ["eval", expression])
        assert code == 0
        echo = '"expression":' + json.dumps(expression) + ","
        assert out.count(echo) == 1
        outputs.append(out.replace(echo, ""))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["result"]["value"] == {"components": [None, None], "level": 1, "n": 1}


def test_eval_syntax_error_reports_position(capsys):
    code, _, err = _run(capsys, ["eval", "sigma(A"])
    assert code == 2
    assert "syntax error at position 7" in err


def test_eval_syntax_error_names_its_position_once(capsys):
    code, out, err = _run(capsys, ["eval", "unit * * unit"])
    assert (code, out) == (2, "")
    assert err == "cpstar: syntax error at position 7: unexpected '*'\n"


def test_eval_unbound_name(capsys):
    code, _, err = _run(capsys, ["eval", "missing * unit"])
    assert code == 2
    assert "missing" in err


def test_eval_zero_denominator_is_a_syntax_error(capsys):
    code, out, err = _run(capsys, ["eval", "subst(1/0)(unit)"])
    assert code == 2
    assert out == ""
    assert "zero denominator" in err and "Traceback" not in err


def test_eval_rejects_deep_nesting(capsys):
    code, out, err = _run(capsys, ["eval", "(" * 3000 + "unit" + ")" * 3000])
    assert code == 2
    assert out == ""
    assert "nested deeper than" in err and "Traceback" not in err


def test_eval_refuses_large_powers_up_front(capsys):
    for expression in ("2^200000", "unit^9", "(nu * unit)^9"):
        code, out, err = _run(capsys, ["eval", expression])
        assert code == 2
        assert out == ""
        assert "exceeds the limit" in err and "Traceback" not in err


def test_eval_refuses_disk_and_torus_powers_over_budget(tmp_path, capsys):
    disk = {"coeffs": [{"p": 4, "q": 0, "num": [1], "den": [1]}, {"p": 0, "q": 1, "num": [2], "den": [1]}]}
    modes = {(a, 1 - a % 2): 1 for a in range(7)}
    torus = FourierSum(2, SYMPLECTIC, Fraction(1, 3), modes)
    bindings = {"D": {"type": "disk", "value": disk}, "T": value_to_tagged(torus)}
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    for expression, message in [
        ("D^7", "reaches index 28, over the limit of 24"),
        ("T^8", "has up to 3003 modes, over the limit of 2000"),
    ]:
        code, out, err = _run(capsys, ["eval", expression, "--input", session])
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err
    # under the budgets, the same bindings evaluate
    for expression in ("D^6", "T^2"):
        code, out, err = _run(capsys, ["eval", expression, "--input", session])
        assert code == 0, err
        assert json.loads(out)["result"]


def test_eval_names_the_entry_limit_for_a_fold_level_too_long_to_print(capsys):
    # C(1 + K, 1)^2 for a 3000-digit K has about 6000 digits, past what str() converts
    code, out, err = _run(capsys, ["eval", f"quot({'9' * 3000})(unit)"])
    assert code == 2
    assert out == ""
    assert err.endswith(f"has over 2**64 entries in its top component, over the limit of {expr.MAX_POWER_ENTRIES}\n")
    assert "Exceeds the limit" not in err and "Traceback" not in err


def test_eval_refuses_to_fold_a_fourier_sum_before_folding(tmp_path, capsys, monkeypatch):
    def no_fold(*args):
        raise AssertionError("the fold ran")

    monkeypatch.setattr(expr, "torus_quotient", no_fold)
    torus = FourierSum(2, SYMPLECTIC, Fraction(1, 3), {(1, 0): 1, (0, 2): PhaseSum.of(2, Fraction(1, 3))})
    session = _write(tmp_path, "session.json", {"bindings": {"T": value_to_tagged(torus)}})
    for expression, K in (("quot(3)(T)", 3), ("quot(3)(T * T)", 3), ("unit * quot(2)(T)", 2)):
        code, out, err = _run(capsys, ["eval", expression, "--input", session])
        assert code == 2
        assert out == ""
        assert err == f"cpstar: eval cannot write a folded Fourier sum; fold a torus product with 'cpstar torus --K {K}'\n"


def test_eval_refuses_star_chains_over_budget(tmp_path, capsys, monkeypatch):
    def no_product(*args):
        raise AssertionError("a product ran past the budget")

    monkeypatch.setattr(expr, "star_elements", no_product)
    monkeypatch.setattr(expr, "disk_product", no_product)
    wide = {"coeffs": [{"p": 13, "q": 0, "num": [1], "den": [1]}, {"p": 0, "q": 1, "num": [2], "den": [1]}]}
    sigma = StarElement.lift(symbol_of_matrix([[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [5, 0, 0, 1]]))
    bindings = {
        "D": {"type": "disk", "value": wide},
        "A": value_to_tagged(sigma.relevel(4)),
        "B": value_to_tagged(sigma.relevel(3)),
    }
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    for expression, message in [
        ("D*D", "of largest basis indices 13 and 13 reaches index 26, over the limit of 24"),
        ("D*D*D", "reaches index 26, over the limit of 24"),
        ("A*B", "of levels 4 and 3 on CP^3 has up to 14400 entries in its top component, over the limit of 10000"),
        ("B*A*A", "of levels 3 and 4 on CP^3 has up to 14400 entries"),
    ]:
        code, out, err = _run(capsys, ["eval", expression, "--input", session])
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err


def test_star_work_is_refused_before_any_product_runs(tmp_path, capsys):
    # a level-20 pair like this one took 26 s before MAX_STAR_TERMS; the
    # refusal reads only the cell counts, so both runs take milliseconds
    operands = BUDGETS["star-terms"][1]
    pair = _write(tmp_path, "pair.json", {"left": operands[0], "right": operands[1]})
    code, out, err = _run(capsys, ["star", "--input", pair])
    assert (code, out) == (2, "")
    assert err.startswith("cpstar: the star product of levels 20 and 20 on CP^1 runs up to ")
    assert err.endswith(f" contraction terms, over the limit of MAX_STAR_TERMS = {expr.MAX_STAR_TERMS}\n")
    # a power is refused at its first product over the budget, here A * A
    session = _write(tmp_path, "session.json", {"bindings": {"A": operands[0]}})
    code, out, err = _run(capsys, ["eval", "A^2", "--input", session])
    assert (code, out) == (2, "")
    assert "a product in the power 2 of a level-20 element on CP^1 runs up to " in err
    assert "over the limit of MAX_STAR_TERMS" in err and "Traceback" not in err


def test_eval_star_chains_under_budget_match_powers(tmp_path, capsys):
    disk = {"coeffs": [{"p": 4, "q": 0, "num": [1], "den": [1]}, {"p": 0, "q": 1, "num": [2], "den": [1]}]}
    sigma = StarElement.lift(symbol_of_matrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]]))
    bindings = {"D": {"type": "disk", "value": disk}, "S": value_to_tagged(sigma)}
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    for chain, power in [("D*D*D*D*D*D", "D^6"), ("S*S*S", "S^3")]:
        code, chained, err = _run(capsys, ["eval", chain, "--input", session])
        assert code == 0, err
        code, powered, err = _run(capsys, ["eval", power, "--input", session])
        assert code == 0, err
        assert json.loads(chained)["result"] == json.loads(powered)["result"]


def _cp3(level):
    sigma = StarElement.lift(symbol_of_matrix([[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [5, 0, 0, 1]]))
    return value_to_tagged(sigma.relevel(level))


def _wide_disk(index):
    return {"coeffs": [{"p": index, "q": 0, "num": [1], "den": [1]}, {"p": 0, "q": 1, "num": [2], "den": [1]}]}


def _cp1(level, seed):
    return value_to_tagged(random_element(random.Random(seed), 1, level, density=0.3))


def _cp1_symbol(degree, seed, cells=None):
    """A seeded CP^1 symbol of ``degree``: dense, or with ``cells`` random entries."""
    rng = random.Random(seed)
    if cells is None:
        return value_to_tagged(random_symbol(rng, 1, degree, density=1.0))
    index = lambda: tuple(sorted(rng.randrange(2) for _ in range(degree)))
    return value_to_tagged(SymbolTensor(1, degree, {(index(), index()): rng.randint(1, 5) for _ in range(cells)}))


def _fourier(modes):
    return value_to_tagged(FourierSum(2, SYMPLECTIC, Fraction(1, 3), {(a, 1 - a % 2): 1 for a in range(modes)}))


# (entry point, its operands over a budget, the same just within it, and the
# eval expression over bindings A and B that asks for the same work)
BUDGETS = {
    "star-elements": (["star"], (_cp3(4), _cp3(3)), (_cp3(3), _cp3(3)), "A * B"),
    # a level-40 result of 41**2 entries, but over 10**8 contraction terms
    "star-terms": (["star"], (_cp1(20, 7), _cp1(20, 8)), None, "A * B"),
    "star-disks": (["star"], (_wide_disk(13), _wide_disk(12)), (_wide_disk(12), _wide_disk(12)), "A * B"),
    "star-fourier": (["star"], (_fourier(41), _fourier(49)), (_fourier(40), _fourier(50)), "A * B"),
    "disk": (["disk"], (_wide_disk(12), _wide_disk(13)), (_wide_disk(12), _wide_disk(12)), "A * B"),
    "torus": (["torus", "--K", "3"], (_fourier(49), _fourier(41)), (_fourier(50), _fourier(40)), "A * B"),
    "quotient-K7": (["quotient", "--K", "7"], (_cp3(1),), None, "quot(7)(A)"),
    "quotient-K6": (["quotient", "--K", "6"], None, (_cp3(1),), "quot(6)(A)"),
    # the pointwise product has no subcommand, only eval's "."; a degree-120
    # result of up to 121**2 entries, and about 13 million terms
    "pointwise": (None, (_cp1_symbol(60, 1), _cp1_symbol(60, 2)), (_cp1_symbol(49, 3, 8), _cp1_symbol(49, 4, 8)), "A . B"),
}


def _entry_and_eval(tmp_path, capsys, argv, operands, expression):
    """The run of the entry point on the operands, and of eval on them bound to A and B."""
    payload = operands[0] if len(operands) == 1 else {"left": operands[0], "right": operands[1]}
    entry = argv and _run(capsys, [*argv, "--input", _write(tmp_path, "input.json", payload)])
    session = {"n": 3, "bindings": dict(zip("AB", operands))}
    evaluated = _run(capsys, ["eval", expression, "--input", _write(tmp_path, "session.json", session)])
    return entry, evaluated


@pytest.mark.parametrize("name", [name for name, case in BUDGETS.items() if case[1]])
def test_every_entry_point_refuses_what_eval_refuses(tmp_path, capsys, monkeypatch, name):
    def no_product(*args):
        raise AssertionError("a product or fold ran past the budget")

    for function in ("star_elements", "disk_product", "moyal_product", "quotient_map", "pointwise_mul"):
        monkeypatch.setattr(expr, function, no_product)
    argv, over, _, expression = BUDGETS[name]
    entry, (eval_code, eval_out, eval_err) = _entry_and_eval(tmp_path, capsys, argv, over, expression)
    assert (eval_code, eval_out) == (2, "")
    assert entry in (None, (eval_code, eval_out, eval_err))
    assert "over the limit of" in eval_err and "Traceback" not in eval_err


@pytest.mark.parametrize("name", [name for name, case in BUDGETS.items() if case[2]])
def test_every_entry_point_runs_what_eval_runs_at_the_bounds(tmp_path, capsys, name):
    argv, _, within, expression = BUDGETS[name]
    entry, (eval_code, eval_out, eval_err) = _entry_and_eval(tmp_path, capsys, argv, within, expression)
    assert eval_code == 0, eval_err
    if entry is None:
        return
    code, out, err = entry
    assert code == 0, err
    result = json.loads(out)
    assert result.get("product", result) == json.loads(eval_out)["result"]


def test_pointwise_work_is_refused_before_the_product_runs(tmp_path, capsys, monkeypatch):
    # degree 49 + 49 on CP^1 is within MAX_POWER_ENTRIES (99**2 entries),
    # but two dense factors run 2500**2 terms
    def no_product(*args):
        raise AssertionError("a product ran past the budget")

    monkeypatch.setattr(expr, "pointwise_mul", no_product)
    bindings = {"A": _cp1_symbol(49, 5), "B": _cp1_symbol(49, 6)}
    terms = len(tagged_to_value(bindings["A"]).cells) * len(tagged_to_value(bindings["B"]).cells)
    assert expr.MAX_STAR_TERMS < terms
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    code, out, err = _run(capsys, ["eval", "A . B", "--input", session])
    assert (code, out) == (2, "")
    assert err == (
        f"cpstar: the pointwise product of degrees 49 and 49 on CP^1 runs up to {terms} contraction terms,"
        f" over the limit of MAX_STAR_TERMS = {expr.MAX_STAR_TERMS}\n"
    )
    # symbols over different n keep their own message
    monkeypatch.undo()
    bindings["B"] = value_to_tagged(symbol_of_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    code, out, err = _run(capsys, ["eval", "A . B", "--input", session])
    assert (code, out, err) == (2, "", "cpstar: pointwise product needs matching n\n")


def test_eval_refuses_results_over_the_digit_limit(capsys):
    code, out, err = _run(capsys, ["eval", "7" * 4000 + "^2"])
    assert code == 2
    assert out == ""
    assert err == "cpstar: result has a number of 8000 digits, over the limit of 4300\n"


@pytest.mark.parametrize(
    "template",
    ["{}", "unit * -{}/3", "1/{}", "2^{}", "quot({})(unit)", "subst({})(unit)"],
    ids=["literal", "numerator", "denominator", "exponent", "quot", "subst"],
)
def test_eval_refuses_long_integer_literals(capsys, template):
    code, out, err = _run(capsys, ["eval", template.format("7" * 5000)])
    assert code == 2
    assert out == ""
    assert err.startswith("cpstar: syntax error")
    assert "integer literal of 5000 digits exceeds the limit of 4300" in err
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_eval_accepts_literals_at_the_digit_limit(capsys):
    code, out, _ = _run(capsys, ["eval", "7" * 4300])
    assert code == 0
    assert json.loads(out)["result"]["value"]["re"] == "7" * 4300


def test_eval_long_product_chain(capsys):
    code, out, _ = _run(capsys, ["eval", " * ".join(["1"] * 3000) + " * unit"])
    assert code == 0
    assert json.loads(out)["result"] == value_to_tagged(StarElement.unit(1))


def test_eval_rejects_bindings_that_are_not_an_object(tmp_path, capsys):
    session = _write(tmp_path, "session.json", {"bindings": []})
    code, out, err = _run(capsys, ["eval", "unit", "--input", session])
    assert code == 2
    assert out == ""
    assert '"bindings" must be a JSON object' in err and "Traceback" not in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"type": "scalar", "value": "1/0"}, "zero denominator"),
        ({"re": "1/0"}, "zero denominator"),
        ({"type": "scalar", "value": {"num": [{"re": "1", "im": "0"}], "den": []}}, "zero denominator"),
        ({"re": 5}, '"p/q" string'),
    ],
    ids=["rational-string", "re-im-binding", "empty-den-polynomial", "non-string-part"],
)
def test_eval_rejects_malformed_scalar_bindings(tmp_path, capsys, payload, message):
    session = _write(tmp_path, "session.json", {"bindings": {"c": payload}})
    code, out, err = _run(capsys, ["eval", "c", "--input", session])
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err



def test_eval_names_an_empty_matrix(tmp_path, capsys):
    session = _write(tmp_path, "session.json", {"bindings": {"M": {"type": "matrix", "value": []}}})
    code, out, err = _run(capsys, ["eval", "sigma(M)", "--input", session])
    assert code == 2
    assert out == ""
    assert "matrix must not be empty" in err and "Traceback" not in err

def test_eval_substitution_at_a_pole_is_a_usage_error(tmp_path, capsys):
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"num": [1], "den": [1, -1]}}})
    code, out, err = _run(capsys, ["eval", "subst(1)(X)", "--input", session])
    assert code == 2
    assert out == ""
    assert "denominator vanishes at nu = 1" in err and "Traceback" not in err
    code, out, _ = _run(capsys, ["eval", "subst(1/2)(X)", "--input", session])
    assert code == 0
    assert json.loads(out)["result"] == value_to_tagged(g(2))


@pytest.mark.parametrize(
    "field, value",
    [("n", 1.9), ("n", True), ("n", "2"), ("seed", 0.5), ("seed", False), ("seed", None)],
    ids=["n-float", "n-bool", "n-string", "seed-float", "seed-bool", "seed-null"],
)
def test_eval_session_n_and_seed_must_be_json_integers(tmp_path, capsys, field, value):
    session = _write(tmp_path, "session.json", {field: value})
    code, out, err = _run(capsys, ["eval", "unit", "--input", session])
    assert code == 2
    assert out == ""
    assert f'"{field}" must be a JSON integer' in err and "Traceback" not in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"type": "series", "value": {"n": 1, "degree": 1, "powers": [1]}}, 'series "powers"'),
        (
            {
                "type": "fourier",
                "value": {
                    "dim": 2,
                    "Lambda": SYMPLECTIC,
                    "lambda": "1",
                    "coeffs": [{"k": [0, 0], "terms": [5]}],
                },
            },
            "Fourier term must be an object",
        ),
    ],
    ids=["series-powers-list", "fourier-term-int"],
)
@pytest.mark.parametrize(
    "argv",
    [["quotient", "--K", "1"], ["subst", "--alpha=1/2"], ["star"]],
    ids=["quotient", "subst", "star"],
)
def test_malformed_loader_payloads_are_usage_errors(tmp_path, capsys, payload, message, argv):
    data = {"left": payload, "right": payload} if argv == ["star"] else payload
    path = _write(tmp_path, "input.json", data)
    code, out, err = _run(capsys, argv + ["--input", path])
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_eval_scales_a_torus_binding(tmp_path, capsys):
    torus = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (1, 0), Fraction(3, 2), Fraction(1, 4))
    bindings = {"T": value_to_tagged(torus), "c": {"re": "0", "im": "1"}}
    session = _write(tmp_path, "session.json", {"bindings": bindings})
    for expression, factor in (("2 * T", 2), ("T * (1/3)", Fraction(1, 3))):
        code, out, err = _run(capsys, ["eval", expression, "--input", session])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result == value_to_tagged(torus.scale(factor))
        assert fourier_from_json(result["value"]) == torus.scale(factor)
    code, out, err = _run(capsys, ["eval", "c * T", "--input", session])
    assert code == 2 and out == ""
    assert "real rationals only" in err


_LOADER_PAYLOADS = {
    "symbol": {"n": 1, "k": 1, "entries": [{"I": [1], "J": [1], "re": "1", "im": "0"}]},
    "element": {
        "n": 1,
        "level": 1,
        "components": [{"n": 1, "k": 1, "entries": [{"I": [0], "J": [1], "re": "1", "im": "0"}]}, None],
    },
    "series": {"n": 1, "degree": 1, "powers": {"1": {"n": 1, "k": 1, "entries": []}}},
    "operator": {"K": 1, "n": 1, "k": 1, "entries": []},
    "fourier": {
        "dim": 2,
        "Lambda": [[0, 1], [-1, 0]],
        "lambda": "1/3",
        "coeffs": [{"k": [1, 0], "terms": [{"amp": "1", "phase": "0"}]}],
    },
    "disk": {"coeffs": [{"p": 1, "q": 0, "num": [1], "den": [1]}]},
}

# (value type, path to a field whose valid value is the integer 1)
_INTEGER_FIELDS = [
    ("symbol", ("n",)),
    ("symbol", ("k",)),
    ("symbol", ("entries", 0, "I", 0)),
    ("symbol", ("entries", 0, "J", 0)),
    ("element", ("n",)),
    ("element", ("level",)),
    ("element", ("components", 0, "entries", 0, "J", 0)),
    ("series", ("n",)),
    ("series", ("degree",)),
    ("operator", ("K",)),
    ("fourier", ("Lambda", 0, 1)),
    ("fourier", ("coeffs", 0, "k", 0)),
    ("disk", ("coeffs", 0, "p")),
]


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "kind, field", _INTEGER_FIELDS, ids=[f"{kind}-{'.'.join(map(str, f))}" for kind, f in _INTEGER_FIELDS]
)
def test_loader_integer_fields_must_be_json_integers(tmp_path, capsys, kind, field, value):
    payload = json.loads(json.dumps(_LOADER_PAYLOADS[kind]))
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"type": kind, "value": payload}}})
    code, out, err = _run(capsys, ["eval", "X", "--input", session])
    assert code == 0, err  # the untouched payload loads
    target = payload
    for step in field[:-1]:
        target = target[step]
    assert target[field[-1]] == 1
    target[field[-1]] = value
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"type": kind, "value": payload}}})
    code, out, err = _run(capsys, ["eval", "X", "--input", session])
    assert code == 2
    assert out == ""
    assert "must be a JSON integer" in err and "Traceback" not in err


# (value type, path to a field, what replaces it: None deletes it, message)
_SHAPE_ERRORS = [
    ("symbol", (), [], "symbol must be an object, got a list"),
    ("symbol", ("n",), None, 'symbol is missing "n"'),
    ("symbol", ("entries",), 1.5, 'symbol "entries" must be a list, got a number'),
    ("symbol", ("entries", 0), [], "symbol entry must be an object, got a list"),
    ("symbol", ("entries", 0, "I"), None, 'symbol entry is missing "I"'),
    ("symbol", ("entries", 0, "J"), 1.5, 'symbol entry "J" must be a list, got a number'),
    ("element", ("level",), None, 'element is missing "level"'),
    ("element", ("components",), 1.5, 'element "components" must be a list, got a number'),
    ("element", ("components", 0), [], 'element "components" item must be an object, got a list'),
    ("element", ("components", 0, "entries", 0, "I"), None, 'symbol entry is missing "I"'),
    ("series", ("degree",), None, 'series is missing "degree"'),
    ("series", ("powers", "1"), [], 'series "powers" item must be an object, got a list'),
    ("operator", ("K",), None, 'operator is missing "K"'),
    ("fourier", ("lambda",), None, 'Fourier sum is missing "lambda"'),
    ("fourier", ("Lambda",), 1.5, 'Fourier sum "Lambda" must be a list, got a number'),
    ("fourier", ("Lambda", 0), 1.5, 'Fourier "Lambda" row must be a list, got a number'),
    ("fourier", ("coeffs", 0), [], 'Fourier "coeffs" item must be an object, got a list'),
    ("fourier", ("coeffs", 0, "k"), None, 'Fourier "coeffs" item is missing "k"'),
    ("fourier", ("coeffs", 0, "k"), 1.5, 'Fourier "coeffs" item "k" must be a list, got a number'),
    ("fourier", ("coeffs", 0, "terms"), 1.5, 'Fourier "terms" must be a list, got a number'),
    ("fourier", ("coeffs", 0, "terms", 0, "amp"), None, 'Fourier term is missing "amp"'),
    ("disk", (), [], "disk element must be an object, got a list"),
    ("disk", ("coeffs",), 1.5, 'disk "coeffs" must be a list, got a number'),
    ("disk", ("coeffs", 0), [], 'disk "coeffs" item must be an object, got a list'),
    ("disk", ("coeffs", 0, "q"), None, 'disk "coeffs" item is missing "q"'),
    ("disk", ("coeffs", 0, "num"), None, 'rational function is missing "num"'),
    ("disk", ("coeffs", 0, "den"), 1.5, 'rational function "den" must be a list, got a number'),
    ("scalar", ("den",), None, 'rational function is missing "den"'),
    ("scalar", ("num",), 1.5, 'rational function "num" must be a list, got a number'),
    ("matrix", (), {}, "matrix must be a list, got an object"),
    ("matrix", (0,), 1.5, "matrix row must be a list, got a number"),
]


@pytest.mark.parametrize(
    "kind, field, replacement, message",
    _SHAPE_ERRORS,
    ids=[f"{kind}-{'.'.join(map(str, f)) or 'payload'}-{r!r}" for kind, f, r, _ in _SHAPE_ERRORS],
)
def test_loader_shape_errors_name_the_field(tmp_path, capsys, kind, field, replacement, message):
    payloads = {**_LOADER_PAYLOADS, "scalar": {"num": [1], "den": [1, -1]}, "matrix": [["1", "0"], ["0", "1"]]}
    payload = json.loads(json.dumps(payloads[kind]))
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"type": kind, "value": payload}}})
    code, out, err = _run(capsys, ["eval", "X", "--input", session])
    assert code == 0, err  # the untouched payload loads
    if field:
        target = payload
        for step in field[:-1]:
            target = target[step]
        if replacement is None:
            del target[field[-1]]
        else:
            target[field[-1]] = replacement
    else:
        payload = replacement
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"type": kind, "value": payload}}})
    code, out, err = _run(capsys, ["eval", "X", "--input", session])
    assert code == 2
    assert out == ""
    assert f"cpstar: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["1.5", "true", " 1", "+1", "1_0"])
def test_series_power_keys_must_be_plain_decimal(tmp_path, capsys, key):
    payload = {"n": 1, "degree": 1, "powers": {key: _LOADER_PAYLOADS["series"]["powers"]["1"]}}
    session = _write(tmp_path, "session.json", {"bindings": {"X": {"type": "series", "value": payload}}})
    code, out, err = _run(capsys, ["eval", "X", "--input", session])
    assert code == 2
    assert out == ""
    assert "series power must be a decimal integer string" in err and "Traceback" not in err


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = _run(capsys, ["star", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "invalid JSON" in err and "recursion depth" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# quotient / subst
# ---------------------------------------------------------------------------


NEGATIVE_N = {"type": "element", "value": {"n": -1, "level": 0, "components": [None]}}


@pytest.mark.parametrize(
    "argv",
    [["subst", "--alpha=1/3"], ["quotient", "--K", "2"], ["star"]],
    ids=["subst", "quotient", "star"],
)
def test_elements_of_negative_dimension_are_refused(tmp_path, capsys, argv):
    data = {"left": NEGATIVE_N, "right": NEGATIVE_N} if argv == ["star"] else NEGATIVE_N
    path = _write(tmp_path, "input.json", data)
    code, out, err = _run(capsys, argv + ["--input", path])
    assert (code, out, err) == (2, "", "cpstar: n must be nonnegative\n")


@pytest.mark.parametrize(
    "series, message",
    [({"n": -1, "degree": -4, "powers": {}}, "n"), ({"n": 1, "degree": -4, "powers": {}}, "degree")],
    ids=["n", "degree"],
)
def test_series_of_negative_dimension_or_degree_are_refused(tmp_path, capsys, series, message):
    session = _write(tmp_path, "session.json", {"bindings": {"S": {"type": "series", "value": series}}})
    code, out, err = _run(capsys, ["eval", "S", "--input", session])
    assert (code, out, err) == (2, "", f"cpstar: {message} must be nonnegative\n")


def test_quotient_command(tmp_path, capsys):
    element = StarElement.lift(symbol_of_matrix(MATRIX_A))
    path = _write(tmp_path, "elem.json", element_to_json(element))
    code, out, _ = _run(capsys, ["quotient", "--K", "2", "--input", path])
    assert code == 0
    assert json.loads(out) == value_to_tagged(quotient_map(element, 2))


def test_quotient_accepts_bare_matrix(tmp_path, capsys):
    path = _write(tmp_path, "m.json", matrix_to_json(MATRIX_B))
    code, out, _ = _run(capsys, ["quotient", "--K", "3", "--input", path])
    assert code == 0
    expected = quotient_map(StarElement.lift(symbol_of_matrix(MATRIX_B)), 3)
    assert json.loads(out) == value_to_tagged(expected)


def test_quotient_requires_positive_level(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["quotient", "--K", "0", "--input", "whatever.json"])
    capsys.readouterr()


def test_subst_command(tmp_path, capsys):
    element = StarElement.lift(symbol_of_matrix(MATRIX_A))
    path = _write(tmp_path, "elem.json", element_to_json(element))
    code, out, _ = _run(capsys, ["subst", "--alpha", "1/3", "--input", path])
    assert code == 0
    assert json.loads(out) == value_to_tagged(substitute(element, Fraction(1, 3)))


def test_subst_accepts_negative_alpha_in_equals_form(tmp_path, capsys):
    element = StarElement.lift(symbol_of_matrix(MATRIX_A))
    path = _write(tmp_path, "elem.json", element_to_json(element))
    code, out, _ = _run(capsys, ["subst", "--alpha=-3/5", "--input", path])
    assert code == 0
    assert json.loads(out) == value_to_tagged(substitute(element, Fraction(-3, 5)))


def test_subst_rejects_nonrational_alpha(capsys):
    with pytest.raises(SystemExit):
        main(["subst", "--alpha", "pi", "--input", "x.json"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# torus / disk
# ---------------------------------------------------------------------------


def test_torus_with_fold(tmp_path, capsys):
    left = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (1, 0))
    right = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (0, 1))
    path = _write(
        tmp_path,
        "pair.json",
        {"left": fourier_to_json(left), "right": fourier_to_json(right)},
    )
    code, out, _ = _run(capsys, ["torus", "--input", path, "--K", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["product"] == value_to_tagged(moyal_product(left, right))
    assert data["dimension"] == 9
    assert data["folded"]["K"] == 3
    assert data["folded"]["coeffs"] == [
        {"k": [1, 1], "terms": [{"amp": "1", "phase": "1/3"}]}
    ]


def test_torus_without_fold(tmp_path, capsys):
    left = FourierSum.mode(2, SYMPLECTIC, Fraction(1, 2), (1, 1))
    path = _write(
        tmp_path,
        "pair.json",
        {"left": fourier_to_json(left), "right": fourier_to_json(left)},
    )
    code, out, _ = _run(capsys, ["torus", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"product"}


def test_torus_adds_amplitudes_at_phases_equal_modulo_one(tmp_path, capsys):
    left = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1", "phase": "1/3"}, {"amp": "2", "phase": "4/3"}]},
    ]}
    right = fourier_to_json(FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (0, 0)))
    path = _write(tmp_path, "pair.json", {"left": left, "right": right})
    code, out, _ = _run(capsys, ["torus", "--input", path])
    assert code == 0
    assert json.loads(out)["product"]["value"]["coeffs"] == [
        {"k": [1, 0], "terms": [{"amp": "3", "phase": "1/3"}]}
    ]



def test_torus_adds_coefficients_of_repeated_modes(tmp_path, capsys):
    left = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [
        {"k": [1, 0], "terms": [{"amp": "1"}]},
        {"k": [0, 1], "terms": [{"amp": "5"}]},
        {"k": [1, 0], "terms": [{"amp": "2"}]},
        {"k": [0, 1], "terms": [{"amp": "-5"}]},
    ]}
    right = fourier_to_json(FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (0, 0)))
    path = _write(tmp_path, "pair.json", {"left": left, "right": right})
    code, out, _ = _run(capsys, ["torus", "--input", path])
    assert code == 0
    assert json.loads(out)["product"]["value"]["coeffs"] == [
        {"k": [1, 0], "terms": [{"amp": "3", "phase": "0"}]}
    ]

def test_torus_refuses_zero_valued_modes_of_the_wrong_length(tmp_path, capsys):
    left = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": "1/3", "coeffs": [{"k": [1], "terms": []}]}
    right = fourier_to_json(FourierSum.mode(2, SYMPLECTIC, Fraction(1, 3), (0, 0)))
    path = _write(tmp_path, "pair.json", {"left": left, "right": right})
    code, out, err = _run(capsys, ["torus", "--input", path])
    assert (code, out, err) == (2, "", "cpstar: mode vectors must match the dimension\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_torus_names_the_digit_limit_of_the_fold_dimension(tmp_path, capsys):
    K = "7" * 3000
    mode = {"dim": 2, "Lambda": SYMPLECTIC, "lambda": f"1/{K}", "coeffs": [{"k": [1, 0], "terms": [{"amp": "1"}]}]}
    path = _write(tmp_path, "pair.json", {"left": mode, "right": mode})
    code, out, err = _run(capsys, ["torus", "--K", K, "--input", path])
    assert (code, out) == (2, "")
    assert err == "cpstar: result has a number of 6000 digits, over the limit of 4300\n"


def test_torus_rejects_wrong_types(tmp_path, capsys):
    path = _write(
        tmp_path,
        "pair.json",
        {"left": matrix_to_json(MATRIX_A), "right": matrix_to_json(MATRIX_B)},
    )
    code, _, err = _run(capsys, ["torus", "--input", path])
    assert code == 2
    assert "Fourier" in err


def test_disk_command(tmp_path, capsys):
    left = DiskElement.basis(0, 1)
    right = DiskElement.basis(1, 0)
    path = _write(
        tmp_path,
        "pair.json",
        {"left": disk_to_json(left), "right": disk_to_json(right)},
    )
    code, out, _ = _run(capsys, ["disk", "--input", path])
    assert code == 0
    assert json.loads(out) == value_to_tagged(disk_product(left, right))


def _disk_item(p, q, value):
    return {"p": p, "q": q, "num": [value], "den": [1]}


def test_disk_repeated_items_add_up(tmp_path, capsys):
    left = {"coeffs": [_disk_item(0, 1, 1), _disk_item(0, 1, 2), _disk_item(1, 0, 5), _disk_item(1, 0, -5)]}
    path = _write(tmp_path, "pair.json", {"left": left, "right": disk_to_json(DiskElement.basis(1, 0))})
    code, out, _ = _run(capsys, ["disk", "--input", path])
    assert code == 0
    expected = disk_product(DiskElement.basis(0, 1, 3), DiskElement.basis(1, 0))
    assert json.loads(out) == value_to_tagged(expected)


@pytest.mark.parametrize("index", [1.5, True, "1", None], ids=["float", "bool", "string", "null"])
def test_disk_indices_must_be_json_integers(tmp_path, capsys, index):
    left = {"coeffs": [{"p": index, "q": 0, "num": [1], "den": [1]}]}
    path = _write(tmp_path, "pair.json", {"left": left, "right": disk_to_json(DiskElement.unit())})
    code, out, err = _run(capsys, ["disk", "--input", path])
    assert code == 2
    assert out == ""
    assert 'disk index "p" must be a JSON integer' in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_suite_passes(capsys):
    code, out, err = _run(
        capsys, ["check", "--suite", "disk", "--seed", "3", "--instances", "4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "disk"
    assert data["seed"] == 3
    assert data["passed"] is True
    assert "disk: pass" in err and "seed 3" in err


def test_check_reports_failures_with_exit_one(capsys, monkeypatch):
    report = CheckReport(suite="assoc", seed=0, params={})
    report.instances = 1
    report.fail(instance=0, detail="synthetic")
    monkeypatch.setattr("cpstar.cli.run_suite", lambda *a, **k: report)
    code, out, err = _run(capsys, ["check", "--suite", "assoc"])
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "assoc: FAIL" in err


def test_check_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--suite", "bogus"])
    capsys.readouterr()


def test_check_rejects_inapplicable_override(capsys):
    code, _, err = _run(capsys, ["check", "--suite", "disk", "--K", "2"])
    assert code == 2
    assert "K" in err


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------


def test_cli_output_matches_golden(capsys, monkeypatch):
    # stdout and exit code of seeded star, subst, quotient, eval, torus and
    # disk requests, of lenient and refused loader inputs and of every check
    # suite, recorded by tests/make_cli_golden.py
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
    assert {case["argv"][0] for case in golden} == {"star", "subst", "quotient", "eval", "torus", "disk", "check"}
    for case in golden:
        monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
        code, out, _ = _run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["name"]


def test_golden_file_is_what_its_generator_writes():
    # rebuilds every seeded request from tests/make_cli_golden.py, so a change
    # to the generator or its seeds shows up as well as one to the outputs
    import make_cli_golden

    recorded = json.loads(make_cli_golden.GOLDEN.read_text(encoding="utf-8"))
    assert make_cli_golden.differing(make_cli_golden.build(), recorded) == []


# ---------------------------------------------------------------------------
# tagged round trips through the loader
# ---------------------------------------------------------------------------


def test_tagged_round_trip_every_kind(tmp_path):
    element = star_elements(
        StarElement.lift(symbol_of_matrix(MATRIX_A)),
        StarElement.lift(symbol_of_matrix(MATRIX_B)),
    )
    values = [
        g(Fraction(2, 3), 1),
        MATRIX_A,
        symbol_of_matrix(MATRIX_A),
        element,
        element.expand(),
        quotient_map(StarElement.lift(symbol_of_matrix(MATRIX_B)), 2),
        FourierSum(
            2, SYMPLECTIC, Fraction(1, 4), {(2, -1): PhaseSum.of(2, Fraction(1, 8))}
        ),
        disk_product(DiskElement.basis(0, 2), DiskElement.basis(2, 0)),
    ]
    for value in values:
        tagged = tagged_to_value(value_to_tagged(value))
        assert tagged == value
        bare = tagged_to_value(value_to_tagged(value)["value"])
        assert bare == value


def _python_m_cpstar(*argv, options=()):
    source = str(Path(cpstar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *options, "-m", "cpstar", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_runs_the_command_line():
    done = _python_m_cpstar("eval", "unit")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"] == value_to_tagged(StarElement.unit(1))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_eval_names_a_lower_interpreter_digit_limit():
    done = _python_m_cpstar("eval", "2 * " + "1" * 1000, options=("-X", "int_max_str_digits=640"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("cpstar: syntax error at position 4: ")
    assert "integer literal of 1000 digits exceeds the limit of 640" in done.stderr
    assert "Exceeds the limit" not in done.stderr and "Traceback" not in done.stderr
    done = _python_m_cpstar("eval", "2 * " + "1" * 640, options=("-X", "int_max_str_digits=640"))
    assert done.returncode == 0, done.stderr
