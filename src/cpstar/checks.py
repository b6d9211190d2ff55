"""Runnable property-check suites behind ``check --suite``.

Every suite draws its instances from a seeded generator, verifies exact
identities, and returns a machine-readable report carrying the seed, the
effective parameters, and the first counterexample (with a reproduction
command) if anything fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .models.disk import DiskElement, disk_product
from .models.radial import (
    check_scaling_consistency,
    check_star_exponential,
    validate_radial_recurrence,
)
from .models.torus import (
    check_quotient_ideal,
    moyal_product,
    torus_quotient,
    torus_quotient_dimension,
)
from .multiindex import sorted_tuples
from .quotient import _tensor_rank, quotient_dimension, quotient_map
from .randgen import (
    random_antihermitean,
    random_disk,
    random_element,
    random_fourier,
    random_matrix,
    random_symbol,
)
from .star import (
    StarElement,
    check_power_closed_form,
    check_strong_invariance,
    star_elements,
    star_symbols,
)
from .symbols import (
    SymbolTensor,
    operator_product,
    wick_contraction,
)
from .zpoly import ZPoly, wick_orders

__all__ = ["CheckReport", "MAX_CHECK_WORK", "SUITES", "run_suite"]

STANDARD_SYMPLECTIC = [[0, 1], [-1, 0]]


@dataclass
class CheckReport:
    suite: str
    seed: int
    params: dict
    instances: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def repro(self) -> str:
        parts = [f"cpstar check --suite {self.suite} --seed {self.seed}"]
        return " ".join(parts)

    def count(self) -> None:
        self.instances += 1

    def fail(self, **info) -> None:
        entry = dict(info)
        entry["instance"] = self.instances
        entry["repro"] = self.repro()
        self.failures.append(entry)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures,
            "details": self.details,
        }


def _suite_assoc(report: CheckReport, rng: random.Random, params: dict) -> None:
    n = params["n"]
    degree = params["degree"]
    for _ in range(params["instances"]):
        report.count()
        triple = [
            StarElement.lift(random_symbol(rng, n, rng.randint(0, degree)))
            for _ in range(3)
        ]
        left = star_elements(star_elements(triple[0], triple[1]), triple[2])
        right = star_elements(triple[0], star_elements(triple[1], triple[2]))
        if left != right:
            report.fail(
                reason="associativity violated",
                degrees=[t.level for t in triple],
            )
            return


def _suite_powers(report: CheckReport, rng: random.Random, params: dict) -> None:
    n = params["n"]
    top = params["max_power"]
    for _ in range(params["instances"]):
        report.count()
        k = rng.randint(1, top)
        l = rng.randint(1, top)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        if not check_power_closed_form(a, b, k, l):
            report.fail(reason="closed power form violated", k=k, l=l)
            return


def _suite_invariance(report: CheckReport, rng: random.Random, params: dict) -> None:
    n = params["n"]
    degree = params["degree"]
    for _ in range(params["instances"]):
        report.count()
        matrix = random_antihermitean(rng, n)
        phi = random_symbol(rng, n, rng.randint(1, degree))
        if not check_strong_invariance(matrix, phi):
            report.fail(reason="first-order commutator identity violated", k=phi.k)
            return


def _suite_quotient(report: CheckReport, rng: random.Random, params: dict) -> None:
    n = params["n"]
    K = params["K"]
    unit_image = quotient_map(StarElement.unit(n), K)
    if not unit_image.is_identity():
        report.fail(reason="unit does not map to the identity")
        return
    for _ in range(params["instances"]):
        report.count()
        a = random_element(rng, n, rng.randint(0, 2))
        b = random_element(rng, n, rng.randint(0, 2))
        image = quotient_map(star_elements(a, b), K)
        composed = quotient_map(a, K).compose(quotient_map(b, K))
        if image != composed:
            report.fail(reason="quotient map not multiplicative")
            return
    indices = sorted_tuples(n, K)
    rank = _tensor_rank(
        [
            [quotient_map(StarElement.lift(SymbolTensor.basis_entry(n, K, left, right)), K).tensor]
            for left in indices
            for right in indices
        ]
    )
    report.details["dimension"] = quotient_dimension(n, K)
    report.details["rank"] = rank
    if rank != quotient_dimension(n, K):
        report.fail(reason="image does not span the matrix algebra", rank=rank)


def _suite_torus(report: CheckReport, rng: random.Random, params: dict) -> None:
    K = params["K"]
    parameter = Fraction(1, K)
    matrix = STANDARD_SYMPLECTIC
    dim = 2
    for _ in range(params["instances"]):
        report.count()
        a = random_fourier(rng, dim, matrix, parameter)
        b = random_fourier(rng, dim, matrix, parameter)
        c = random_fourier(rng, dim, matrix, parameter)
        if moyal_product(moyal_product(a, b), c) != moyal_product(a, moyal_product(b, c)):
            report.fail(reason="Moyal associativity violated")
            return
        qa, qb, qc = (torus_quotient(f, K) for f in (a, b, c))
        if qa.product(qb).product(qc) != qa.product(qb.product(qc)):
            report.fail(reason="quotient associativity violated")
            return
        if torus_quotient(moyal_product(a, b), K) != qa.product(qb):
            report.fail(reason="fold does not respect the product")
            return
    pairs = [
        (
            tuple(rng.randint(-2, 2) for _ in range(dim)),
            tuple(rng.randint(-1, 1) for _ in range(dim)),
        )
        for _ in range(4)
    ]
    other = random_fourier(rng, dim, matrix, parameter)
    if not check_quotient_ideal(pairs, other, K):
        report.fail(reason="congruent-mode differences leave the fold kernel")
    report.details["dimension"] = torus_quotient_dimension(dim, K)


def _suite_disk(report: CheckReport, rng: random.Random, params: dict) -> None:
    unit = DiskElement.unit()
    for _ in range(params["instances"]):
        report.count()
        a = random_disk(rng, params["max_index"])
        b = random_disk(rng, params["max_index"])
        c = random_disk(rng, params["max_index"])
        if disk_product(disk_product(a, b), c) != disk_product(a, disk_product(b, c)):
            report.fail(reason="disk associativity violated")
            return
        if disk_product(unit, a) != a or disk_product(a, unit) != a:
            report.fail(reason="disk unit violated")
            return


def _suite_starexp(report: CheckReport, rng: random.Random, params: dict) -> None:
    report.count()
    if not validate_radial_recurrence(3, 2):
        report.fail(reason="radial recurrence disagrees with literal product")
        return
    report.count()
    if not check_star_exponential(params["order"]):
        report.fail(reason="star exponential closed form violated")
        return
    for r in range(7):
        report.count()
        if not check_scaling_consistency(r):
            report.fail(reason="scaling operator reciprocal check failed", r=r)
            return


def _suite_oracle(report: CheckReport, rng: random.Random, params: dict) -> None:
    for n in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                a = random_symbol(rng, n, k, density=0.7)
                b = random_symbol(rng, n, l, density=0.7)
                orders = wick_orders(a.to_zpoly(), b.to_zpoly())
                terms = star_symbols(a, b).terms
                for r in range(min(k, l) + 1):
                    report.count()
                    literal = SymbolTensor.from_zpoly(n, k + l - r, orders[r] if r < len(orders) else ZPoly(n))
                    if wick_contraction(a, b, r) != literal:
                        report.fail(reason="contraction oracle mismatch", n=n, k=k, l=l, r=r)
                        return
                    if terms[r].tensor != literal:
                        report.fail(reason="star_symbols term oracle mismatch", n=n, k=k, l=l, r=r)
                        return
    for n in (1, 2):
        for K in (1, 2):
            report.count()
            a = random_symbol(rng, n, K, density=0.7)
            b = random_symbol(rng, n, K, density=0.7)
            full = wick_contraction(a, b, K)
            scaled = operator_product(a, b).scale(factorial(K) ** 2)
            if full != scaled:
                report.fail(reason="top contraction is not the operator product", n=n, K=K)
                return


MAX_CHECK_WORK = 10**7
"""Largest estimated work a suite may take, in units of about a microsecond:
on a 2-core x86-64 VM with Python 3.11, each estimate below was fitted to
timed runs at growing ``n``, ``K`` and instance counts, and over-estimates
the largest of them.  A budget of 10**7 is some ten seconds; ``check
--suite assoc --n 5`` (estimated 1.8 * 10**7) took 18 s."""


def _binomial(m: int, k: int) -> int:
    """C(m, k), or a smaller binomial over :data:`MAX_CHECK_WORK` once the
    product passes it, so that an estimate of huge parameters is cheap.
    The estimates only grow with it, so either way they exceed the budget."""
    k = min(k, m - k)
    out = 1
    for j in range(k):
        out = out * (m - j) // (j + 1)
        if out > MAX_CHECK_WORK:
            break
    return out


def _slots(n: int, k: int) -> int:
    """Entry slots of a degree-``k`` symbol on CP^n."""
    return _binomial(n + k, k) ** 2


# suite -> (runner, default parameters, work estimate of the parameters)
_SUITE_RUNNERS = {
    # three lifts of degree up to d: the widest product is of levels 2d and d
    "assoc": (
        _suite_assoc,
        {"n": 1, "degree": 2, "instances": 20},
        lambda p: p["instances"] * (300 + _slots(p["n"], 2 * p["degree"]) * _slots(p["n"], p["degree"]) // 8),
    ),
    # powers up to the max_power-th of two matrix symbols reach degree 2 max_power
    "powers": (
        _suite_powers,
        {"n": 1, "max_power": 3, "instances": 10},
        lambda p: p["instances"] * (700 + 12 * _slots(p["n"], 2 * p["max_power"])),
    ),
    "invariance": (
        _suite_invariance,
        {"n": 1, "degree": 3, "instances": 10},
        lambda p: p["instances"] * (500 + _binomial(p["n"] + p["degree"], p["degree"]) ** 3 * 2 // 3),
    ),
    # products of level-2 elements, then the rank of the C(n + K, K)**2 basis images
    "quotient": (
        _suite_quotient,
        {"n": 1, "K": 2, "instances": 10},
        lambda p: p["instances"] * (800 + _slots(p["n"], 2) ** 2 // 2) + 16 * _binomial(p["n"] + p["K"], p["K"]) ** 4,
    ),
    "torus": (_suite_torus, {"K": 3, "instances": 10}, lambda p: p["instances"] * 8000),
    "disk": (
        _suite_disk,
        {"max_index": 3, "instances": 20},
        lambda p: p["instances"] * 100 * (p["max_index"] + 1) ** 3,
    ),
    "starexp": (_suite_starexp, {"order": 8}, lambda p: 2 * p["order"] ** 4),
    "oracle": (_suite_oracle, {}, lambda p: 70_000),
}

SUITES = tuple(sorted(_SUITE_RUNNERS))


def run_suite(suite: str, seed: int = 0, **overrides) -> CheckReport:
    """Run one named suite and return its report.

    Parameters whose estimated work exceeds :data:`MAX_CHECK_WORK` are a
    ValueError, raised before any instance runs."""
    try:
        runner, defaults, estimate = _SUITE_RUNNERS[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}") from None
    params = dict(defaults)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise ValueError(f"suite {suite!r} does not take parameter {key!r}")
        params[key] = value
    if estimate(params) > MAX_CHECK_WORK:
        raise ValueError(
            f"suite {suite!r} with these parameters would exceed the work budget of "
            f"{MAX_CHECK_WORK} (some ten seconds); lower n, K or instances"
        )
    report = CheckReport(suite=suite, seed=seed, params=params)
    runner(report, random.Random(seed), params)
    return report
