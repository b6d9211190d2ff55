"""Smoke test of the benchmark at its smallest size: one round per phase.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
It checks that every end-to-end and per-layer metric named in
``BENCHMARK.json`` is emitted with its unit for every workload, and that
only ``cli_requests`` may have failed ops, all of them known defects.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from check_determinism import run_bench
from run import KNOWN_DEFECTS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    summary, result = run_bench(workload, seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}
    if workload == "cli_requests":
        assert set(summary["failed_ops"]) <= KNOWN_DEFECTS
    else:
        assert summary["failed_ops"] == {}
        assert result["failed"] == 0
