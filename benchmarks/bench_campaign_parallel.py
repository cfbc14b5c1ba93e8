"""Campaign executor bench: parallel fan-out vs the serial path.

The acceptance contract of the campaign subsystem, measured end to end
on the real Figure-5 sweep definitions:

* parallel execution (``jobs=N``) produces **bit-identical** measurement
  values to the serial path;
* a warm-cache rerun performs **zero** simulations;
* with enough cores, ``--jobs 4`` beats the serial wall-clock by >= 2x
  (asserted only when the machine actually has >= 4 CPUs -- on smaller
  runners the speedup section reports and skips).
"""

import os
import time

import pytest

from benchmarks.conftest import emit
from repro.analysis.calibration import LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM
from repro.analysis.figure5 import figure5_spec, run_figure5
from repro.campaign import run_campaign


class TestCampaignParallel:
    def test_parallel_bit_identical_and_warm_cache_idle(self, tmp_path):
        serial, run_serial = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=2, warmup=1, sizes=(2, 4),
        )
        parallel, run_cold = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=2, warmup=1, sizes=(2, 4),
            jobs=2, cache_dir=tmp_path,
        )
        assert run_cold.failed == 0
        assert run_cold.simulated == len(run_cold.results)
        rows = []
        for variant, by_n in serial.items():
            for n, m in by_n.items():
                p = parallel[variant][n]
                assert p.per_barrier_us == m.per_barrier_us, (variant, n)
                assert p.mean_latency_us == m.mean_latency_us
                rows.append([variant, n, round(m.mean_latency_us, 3), "=="])
        _, run_warm = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=2, warmup=1, sizes=(2, 4),
            jobs=2, cache_dir=tmp_path,
        )
        assert run_warm.simulated == 0, "warm cache must not simulate"
        assert run_warm.cache_hits == len(run_warm.results)
        emit(
            "Campaign: parallel vs serial (LANai 7.2, N in {2,4})",
            ["variant", "N", "mean us", "parallel"],
            rows,
        )

    @pytest.mark.wallclock
    def test_parallel_speedup_on_multicore(self, tmp_path):
        """The ISSUE acceptance bar: the LANai 4.3 + 7.2 Figure-5 sweeps
        at ``jobs=4`` >= 2x faster than serial.  Needs real cores."""
        cpus = os.cpu_count() or 1
        jobs = (
            figure5_spec(LANAI_4_3_SYSTEM, repetitions=2, warmup=1).compile()
            + figure5_spec(LANAI_7_2_SYSTEM, repetitions=2, warmup=1).compile()
        )
        t0 = time.perf_counter()
        serial = run_campaign(jobs, name="fig5-serial")
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_campaign(jobs, jobs=4, name="fig5-parallel")
        t_parallel = time.perf_counter() - t0
        assert serial.failed == 0 and parallel.failed == 0
        assert [r.value for r in serial.results] == [
            r.value for r in parallel.results
        ], "parallel campaign must be bit-identical to serial"
        speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
        emit(
            f"Campaign: {len(jobs)} Figure-5 jobs, serial vs --jobs 4 "
            f"({cpus} CPUs)",
            ["path", "wall s", "speedup"],
            [
                ["serial", round(t_serial, 3), 1.0],
                ["--jobs 4", round(t_parallel, 3), round(speedup, 2)],
            ],
        )
        if cpus < 4:
            pytest.skip(
                f"speedup assertion needs >= 4 CPUs (have {cpus}); "
                f"measured {speedup:.2f}x"
            )
        assert speedup >= 2.0, (
            f"--jobs 4 only {speedup:.2f}x faster than serial"
        )
