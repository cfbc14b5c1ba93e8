"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload is run twice untraced and twice traced with ``--smoke``.
Each run must pass its own checks, emit exactly the metrics
``BENCHMARK.json`` declares with the declared units, and repeat every
simulated-clock metric bit for bit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Units of host-clock metrics; every other metric is simulated (or a
#: count) and must repeat exactly.
HOST_UNITS = {"s", "us", "1/s", "MB"}


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] not in HOST_UNITS and name != "trace.overhead_pct"
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_declared_and_repeatable(workload, trace, declared):
    first, second = run(workload, trace), run(workload, trace)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[declared]}
    assert simulated(first["metrics"]) == simulated(second["metrics"])
