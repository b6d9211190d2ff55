"""Check that the traced run's counts repeat exactly.

For every workload this runs the traced benchmark twice with one seed and
once with a second seed, each for one traced round, and checks that

* the two runs with the same seed report identical ``.calls``,
  ``.entries_out``, ``.cells``, ``.bytes_out`` and ``.created`` values;
* the second seed gives the same ops per round and the same size mix;
* no op returns a wrong result, and the only failed ops are the known
  defects of ``cli_requests`` (``bad:subst-zero`` and ``bad:deep-nesting``),
  in the same number for both seeds.

Usage, from the repository root::

    python3 bench/check_determinism.py [--seed 1] [--other-seed 2]

Exits with 1 and names every mismatch if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import KNOWN_DEFECTS

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", ".entries_out", ".cells", ".bytes_out", ".created")
WORKLOADS = ("cpn_products", "cpn_folds", "nu_coefficients", "cli_requests")


def run_bench(workload: str, seed: int, trace: int, seconds: int = 0) -> tuple[dict, dict]:
    """Run the benchmark once; return its run summary and its result line."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=RUN.parent.parent)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {child.returncode}:\n{child.stderr}")
    lines = child.stdout.strip().splitlines()
    summary = next(json.loads(line) for line in lines if line.startswith('{"failed_ops"'))
    return summary, json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(COUNT_SUFFIXES)
    }


def check(workload: str, seed: int, other_seed: int) -> list[str]:
    (first, result), (_, again), (other, other_result) = (
        run_bench(workload, s, trace=1) for s in (seed, seed, other_seed)
    )
    problems = []
    a, b = counts(result), counts(again)
    for name in sorted(a):
        if a[name] != b.get(name):
            problems.append(f"{workload}: {name} is {a[name]} and then {b.get(name)} with seed {seed}")
    for key in ("round_ops", "mix"):
        if first[key] != other[key]:
            problems.append(f"{workload}: {key} differs between seeds {seed} and {other_seed}")
    for summary, outcome, s in ((first, result, seed), (other, other_result, other_seed)):
        if not outcome["correct"]:
            problems.append(f"{workload}: a wrong result or an unexpected failure with seed {s}")
        unexpected = set(summary["failed_ops"]) - KNOWN_DEFECTS
        if unexpected:
            problems.append(f"{workload}: failed ops {sorted(unexpected)} with seed {s}")
    if result["failed"] != other_result["failed"]:
        problems.append(f"{workload}: {result['failed']} and {other_result['failed']} failed ops")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that traced counts repeat exactly.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        found = check(workload, args.seed, args.other_seed)
        print(f"{workload}: {'ok' if not found else 'MISMATCH'}")
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
