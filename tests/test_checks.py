"""Check suites: every suite passes, reports are stable and informative."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cpstar import checks
from cpstar.checks import MAX_CHECK_WORK, CheckReport, SUITES, run_suite
from cpstar.cli import main
from cpstar.linalg import matrix_rank
from cpstar.models import radial
from cpstar.multiindex import sorted_tuples
from cpstar.quotient import quotient_dimension, quotient_map
from cpstar.scalars import GAUSS_ZERO
from cpstar.star import StarElement, StarTerm
from cpstar.symbols import SymbolTensor
from cpstar.zpoly import ZPoly


def test_suite_names_are_sorted_and_complete():
    assert SUITES == tuple(sorted(SUITES))
    assert set(SUITES) == {
        "assoc",
        "disk",
        "invariance",
        "oracle",
        "powers",
        "quotient",
        "starexp",
        "torus",
    }


@pytest.mark.parametrize(
    "suite,overrides",
    [
        ("assoc", {"instances": 3}),
        ("powers", {"instances": 2}),
        ("invariance", {"instances": 3}),
        ("quotient", {"instances": 2}),
        ("torus", {"instances": 3}),
        ("disk", {"instances": 5}),
        ("starexp", {"order": 4}),
        ("oracle", {}),
    ],
)
def test_every_suite_passes(suite, overrides):
    report = run_suite(suite, seed=1, **overrides)
    assert report.passed
    assert report.failures == []
    assert report.instances > 0
    for key, value in overrides.items():
        assert report.params[key] == value


def test_report_json_shape():
    report = run_suite("disk", seed=2, instances=3)
    data = report.to_json()
    assert set(data) == {
        "suite",
        "seed",
        "params",
        "instances",
        "passed",
        "failures",
        "details",
    }
    assert data["suite"] == "disk"
    assert data["seed"] == 2
    assert data["passed"] is True


def test_quotient_suite_records_dimension_and_rank():
    report = run_suite("quotient", seed=0, instances=1)
    assert report.details["dimension"] == 9
    assert report.details["rank"] == 9


@pytest.mark.parametrize("n, K", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_quotient_rank_from_cells_matches_the_rank_of_the_entries(n, K):
    """The suite ranks int cells; the oracle is the rank of the entries
    themselves, one ``GaussRational`` per slot, as the suite once took it."""
    slots = [(u, v) for u in sorted_tuples(n, K) for v in sorted_tuples(n, K)]
    rows = []
    for left, right in slots:
        image = quotient_map(StarElement.lift(SymbolTensor.basis_entry(n, K, left, right)), K)
        entries = image.tensor.entries
        rows.append([entries.get(slot, GAUSS_ZERO) for slot in slots])
    report = run_suite("quotient", seed=0, n=n, K=K, instances=1)
    assert report.passed
    assert report.details["rank"] == matrix_rank(rows) == quotient_dimension(n, K)


def test_torus_suite_records_dimension():
    report = run_suite("torus", seed=0, instances=1)
    assert report.details["dimension"] == 9


def test_unknown_suite_and_parameter_are_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")
    with pytest.raises(ValueError):
        run_suite("disk", K=2)


def test_none_overrides_fall_back_to_defaults():
    report = run_suite("powers", seed=0, instances=None)
    assert report.params["instances"] == 10
    assert report.instances == 10


def test_runs_are_deterministic_for_a_seed():
    first = run_suite("assoc", seed=9, instances=4)
    second = run_suite("assoc", seed=9, instances=4)
    assert first.to_json() == second.to_json()


def test_failure_entries_carry_reproduction_commands():
    report = CheckReport(suite="assoc", seed=7, params={})
    assert report.repro() == "cpstar check --suite assoc --seed 7"
    report.count()
    report.fail(reason="synthetic")
    assert not report.passed
    (entry,) = report.failures
    assert entry["reason"] == "synthetic"
    assert entry["instance"] == 1
    assert entry["repro"] == "cpstar check --suite assoc --seed 7"


def _star_symbols_doubled_at_order_one(real):
    def broken(f, g):
        terms = real(f, g)
        first = terms.terms[1]
        terms.terms[1] = StarTerm(first.r, first.coefficient, first.tensor.scale(2))
        return terms

    return broken


def _wick_contraction_doubled_at_order_one(real):
    return lambda a, b, r: real(a, b, r).scale(2 if r == 1 else 1)


@pytest.mark.parametrize(
    "name, broken, reason",
    [
        ("star_symbols", _star_symbols_doubled_at_order_one, "star_symbols term oracle mismatch"),
        ("wick_contraction", _wick_contraction_doubled_at_order_one, "contraction oracle mismatch"),
    ],
)
def test_the_oracle_suite_sees_a_broken_kernel_entry_point(name, broken, reason, monkeypatch, capsys):
    monkeypatch.setattr(checks, name, broken(getattr(checks, name)))
    report = run_suite("oracle", seed=0)
    assert report.failures == [
        {"reason": reason, "n": 1, "k": 1, "l": 1, "r": 1, "instance": 2, "repro": "cpstar check --suite oracle --seed 0"}
    ]
    assert main(["check", "--suite", "oracle"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def _wick_orders_losing_a_tuple_at_order_one(real):
    """Order 1 without the pair of the first coordinate that has one."""

    def broken(left, right):
        orders = real(left, right)
        for i in range(left.n + 1):
            lost = left.diff_z(i) * right.diff_zbar(i)
            if lost.terms:
                orders[1] = orders[1] - lost
                break
        return orders

    return broken


def _from_zpoly_dropping_a_term(real):
    def broken(cls, n, k, poly):
        kept = dict(list(poly.terms.items())[1:])
        return real(n, k, ZPoly(poly.n, kept))

    return classmethod(broken)


@pytest.mark.parametrize(
    "owner, name, broken, r, instance",
    [
        (checks, "wick_orders", _wick_orders_losing_a_tuple_at_order_one, 1, 2),
        (SymbolTensor, "from_zpoly", _from_zpoly_dropping_a_term, 0, 1),
    ],
)
def test_the_oracle_suite_sees_a_broken_literal_side(owner, name, broken, r, instance, monkeypatch, capsys):
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    report = run_suite("oracle", seed=0)
    assert report.failures == [
        {
            "reason": "contraction oracle mismatch",
            "n": 1,
            "k": 1,
            "l": 1,
            "r": r,
            "instance": instance,
            "repro": "cpstar check --suite oracle --seed 0",
        }
    ]
    assert main(["check", "--suite", "oracle"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def _series_dividing_one_step_short(self, order):
    """``ScaledMonomial.series`` with an off-by-one in its division loop."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for c, exponent in self.factors:
        if exponent == 1:
            for j in range(order, 0, -1):
                out[j] = out[j] + c * out[j - 1]
        else:
            series = [Fraction(0)] * (order + 1)
            for j in range(order):
                series[j] = out[j] - (c * series[j - 1] if j else 0)
            out = series
    return out


def _s_on_monomial_with_other_factors(r, inverse=False):
    """``s_on_monomial`` whose inverse branch divides by ``1 + (7k + 3)/5 t``."""
    return radial.ScaledMonomial(-r, tuple((Fraction(7 * k + 3, 5), -1) for k in range(1, r + 1)))


@pytest.mark.parametrize(
    "owner, name, broken",
    [
        (radial.ScaledMonomial, "series", _series_dividing_one_step_short),
        (radial, "s_on_monomial", _s_on_monomial_with_other_factors),
    ],
)
def test_the_starexp_suite_sees_a_broken_scaling_operator(owner, name, broken, monkeypatch, capsys):
    monkeypatch.setattr(owner, name, broken)
    report = run_suite("starexp", seed=0, order=4)
    assert report.failures == [
        {"reason": "scaling operator reciprocal check failed", "r": 1, "instance": 4, "repro": "cpstar check --suite starexp --seed 0"}
    ]
    assert main(["check", "--suite", "starexp"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"][0]["reason"] == "scaling operator reciprocal check failed"


def _estimate(suite, **overrides):
    _, defaults, estimate = checks._SUITE_RUNNERS[suite]
    return estimate(dict(defaults, **overrides))


def test_defaults_and_recorded_requests_fit_the_work_budget():
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
    requests = [case["argv"] for case in golden if case["argv"][0] == "check"]
    assert {argv[2] for argv in requests} == set(SUITES)
    for suite in SUITES:
        assert _estimate(suite) <= MAX_CHECK_WORK
        if "instances" in checks._SUITE_RUNNERS[suite][1]:
            # the benchmark's single-instance checks and the overrides tested here
            assert _estimate(suite, instances=1) <= _estimate(suite, instances=5) <= MAX_CHECK_WORK
    for argv in requests:
        flags = dict(zip(argv[1::2], argv[2::2]))
        overrides = {key: int(flags[f"--{key}"]) for key in ("n", "K", "instances") if f"--{key}" in flags}
        assert _estimate(flags["--suite"], **overrides) <= MAX_CHECK_WORK, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "assoc", "--n", "40"],
        ["--suite", "assoc", "--n", "5"],
        ["--suite", "powers", "--n", "5"],
        ["--suite", "invariance", "--n", "8"],
        ["--suite", "quotient", "--n", "9"],
        ["--suite", "quotient", "--K", "30"],
        ["--suite", "quotient", "--n", "1" + "0" * 40, "--K", "1" + "0" * 40],
        ["--suite", "torus", "--K", "2", "--instances", "2000"],
    ]
    + [["--suite", suite, "--instances", "100000"] for suite in ("assoc", "powers", "invariance", "quotient", "torus", "disk")],
)
def test_check_over_the_work_budget_is_refused_before_it_runs(argv, capsys, monkeypatch):
    # the refusal is the only way the large cases are tested: none of them runs
    def never(*args):
        raise AssertionError("the suite started")

    for suite, (_, defaults, estimate) in list(checks._SUITE_RUNNERS.items()):
        monkeypatch.setitem(checks._SUITE_RUNNERS, suite, (never, defaults, estimate))
    code = main(["check", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("cpstar: suite ") and "work budget of 10000000" in err and "Traceback" not in err


def test_budget_refusal_keeps_the_python_api_message():
    with pytest.raises(ValueError, match="would exceed the work budget"):
        run_suite("assoc", n=40)
    assert _estimate("assoc", n=4) <= MAX_CHECK_WORK < _estimate("assoc", n=5)
