"""Seeded benchmark of the cpstar package.

Usage, from the repository root::

    python3 bench/run.py --workload cpn_products --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in one process, one op at a time (closed loop, single
caller, no threads).  Set-up builds the workload's rounds from the seed,
several times over, and reports the median as ``setup_s``.  The timed part
then runs whole rounds until ``--seconds`` have passed and at least 100 ops
have run, checking the exact result of every op.

Every time is reported at a reference speed: the wall time measured with
``perf_counter``, times ``REFERENCE_KERNEL_S`` over the time of a fixed
standard-library kernel measured around it.  That takes out much of the
drift of a shared machine's speed, which over minutes is larger than the
differences the benchmark is meant to show.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` times one round untraced, installs the tracer (``tracer.py``),
runs the same round traced, then further traced rounds until the time is
up, and reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process and
prints a table of all of them.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cpn_products", "cpn_folds", "nu_coefficients", "cli_requests")
# Set-up runs at least SETUP_REPEATS times, and more while under SETUP_BUDGET_S.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 600
# A timed run also lasts at least this many ops, so that at least ten lie
# beyond the 90th percentile.
MIN_OPS = 100
# Requests of cli_requests that crash cli.main on the seed code instead of
# exiting 2.  They count as failed ops but leave the run correct; a failure of
# any other op makes it incorrect.
KNOWN_DEFECTS = frozenset({"bad:subst-zero", "bad:deep-nesting"})
# The speed kernel is sampled after an op once this long has passed since the
# last sample, and this many times before each set-up.
CALIBRATION_INTERVAL_S = 0.05
SETUP_CALIBRATIONS = 5
# Median time of the speed kernel on the machine described in README.md in a
# steady stretch.  Times are scaled to it.
REFERENCE_KERNEL_S = 1.7e-3
# An op's speed is the median of this many kernel samples around it, about
# half a second of a run.
LOCAL_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- one workload -----------------------------------------------------------


def kernel_seconds() -> float:
    """Time one pass of a fixed Fraction kernel, with the cyclic GC off.

    It uses no ``cpstar`` code, so a change to the package does not move it.
    """
    gc.disable()
    try:
        began = perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 5 + 2)
        return perf_counter() - began
    finally:
        gc.enable()


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, so set-up fills them again."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cpstar"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Recorder:
    """Wall time and status of every op run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.statuses: Counter = Counter()
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self.kernel: list[float] = []
        # per op, the index of the first kernel sample taken after it
        self.sample_after: list[int] = []
        self.last_calibration = float("-inf")

    def calibrate(self) -> None:
        self.kernel.append(kernel_seconds())
        self.last_calibration = perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's wall times into reference times."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel)

    def scaled_times(self) -> list[float]:
        """Each op's wall time at the reference speed, by the kernel samples around it."""
        half, last = LOCAL_SAMPLES // 2, len(self.kernel) - 1
        return [
            time * REFERENCE_KERNEL_S
            / statistics.median(self.kernel[max(0, min(index, last) - half):min(index, last) + half + 1])
            for time, index in zip(self.times, self.sample_after)
        ]

    def correct(self) -> bool:
        """No wrong result, and no failure outside the known defects."""
        return self.statuses["wrong"] == 0 and set(self.failures) <= KNOWN_DEFECTS

    def run_round(self, ops, tracer=None) -> None:
        """Run one round; an op's status is ok, wrong (check failed) or raised."""
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(self.times)
            start = perf_counter()
            try:
                status = "ok" if op.run() else "wrong"
            except Exception as exc:  # a crash is a failed op, reported by kind
                status = f"raised {type(exc).__name__}"
            end = perf_counter()
            self.times.append(end - start)
            self.sample_after.append(len(self.kernel))
            self.statuses[status] += 1
            if status != "ok":
                self.failures[op.label][status] += 1
            if end - self.last_calibration >= CALIBRATION_INTERVAL_S:
                self.calibrate()


def measure(name: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path.insert(0, str(SRC))
    import cpstar

    if Path(cpstar.__file__).resolve().parent != (SRC / "cpstar").resolve():
        print(f"bench: imported cpstar from {cpstar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_s = perf_counter() - START
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{'traced' if traced else 'plain'}"
    setups = []
    record = Recorder()
    try:
        while len(setups) < SETUP_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_BUDGET_S
        ):
            for _ in range(SETUP_CALIBRATIONS):
                record.calibrate()
            began = perf_counter()
            clear_caches()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            rounds = workload.setup(random.Random(f"{name}/{seed}"), workdir)
            workload.warm_up()
            setups.append(perf_counter() - began)
        setup_s = (import_s + statistics.median(setups)) * REFERENCE_KERNEL_S / statistics.median(record.kernel)
        if traced:
            metrics = measure_traced(name, seed, rounds, seconds, record)
        else:
            began = perf_counter()
            index = 0
            while index == 0 or perf_counter() < began + seconds or len(record.times) < MIN_OPS:
                record.run_round(rounds[index % len(rounds)])
                index += 1
            metrics = end_to_end(setup_s, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(record.times)
    failed = attempted - record.statuses["ok"]
    run_summary = {
        "workload": name,
        "seed": seed,
        "round_ops": len(rounds[0]),
        "mix": Counter(op.label for op in rounds[0]),
        "failed_ops": {label: dict(statuses) for label, statuses in sorted(record.failures.items())},
        "import_s": import_s,
        "setup_runs_s": setups,
        "kernel_ms": statistics.median(record.kernel) * 1e3,
        "speed_scale": record.scale(),
    }
    print(json.dumps(run_summary, sort_keys=True))
    print(
        f"{name} seed={seed}: "
        + ", ".join(f"{key}={value['value']:.6g} {value['unit']}" for key, value in metrics.items())
        + f", failed_ops_ratio={failed / attempted:.6g} ({failed}/{attempted} ops attempted)"
    )
    result = {
        "correct": record.correct(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def end_to_end(setup_s: float, record: Recorder) -> dict:
    """End-to-end metrics from times already scaled to the reference speed.

    ``ops_per_s`` divides by the summed time of the ops, which leaves out the
    speed kernel and the bookkeeping between ops.
    """
    times = record.scaled_times()
    values = {
        "setup_s": setup_s,
        "ops_per_s": record.statuses["ok"] / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()}


def measure_traced(name: str, seed: int, rounds, seconds: float, record: Recorder) -> dict:
    """Per-layer metrics: counts from the first traced round, self time per op."""
    import tracer as tracing
    import workloads

    began = perf_counter()
    untraced = Recorder()
    untraced.run_round(rounds[0])
    record.kernel += untraced.kernel
    spans = tracing.Tracer()
    spans.install()
    unpaused, workloads.checking = workloads.checking, spans.pause
    try:
        record.run_round(rounds[0], spans)
        traced_wall = sum(record.times)
        counts = spans.counts()
        index = 1
        while perf_counter() < began + seconds:
            record.run_round(rounds[index % len(rounds)], spans)
            index += 1
    finally:
        workloads.checking = unpaused
        spans.uninstall()
    self_by_name, roots = spans.self_seconds()
    spans.write_spans(WORK / f"spans-{name}-{seed}.tsv")
    per_op = record.scale() / len(record.times)
    values = dict(counts)
    for span, value in self_by_name.items():
        values[f"{span}.self_s"] = value * per_op
    for layer in tracing.layers():
        values[f"{layer}.self_s"] = per_op * sum(
            value for span, value in self_by_name.items() if tracing.layer_of(span) == layer
        )
    values["bench.self_s"] = (sum(record.times) - roots) * per_op
    values["trace.overhead_ratio"] = traced_wall / sum(untraced.times)
    return {key: {"value": values[key], "unit": unit} for key, unit in tracing.metric_units().items()}


# -- every workload -----------------------------------------------------------


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"bench: {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        rows[name] = json.loads(child.stdout.strip().splitlines()[-1])
    total = {"correct": all(r["correct"] for r in rows.values()), "attempted": 0, "failed": 0, "metrics": {}}
    for name, row in rows.items():
        print(f"{name}: {row['attempted']} ops attempted, {row['failed']} failed")
        metrics = dict(row["metrics"])
        metrics["failed_ops_ratio"] = {"value": row["failed"] / row["attempted"], "unit": "ratio"}
        for key, value in metrics.items():
            print(f"  {key:45s} {value['value']:>14.6g} {value['unit']}")
            total["metrics"][f"{name}.{key}"] = value
        total["attempted"] += row["attempted"]
        total["failed"] += row["failed"]
    print(json.dumps(total, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpstar" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
