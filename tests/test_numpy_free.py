"""The simulator runs with numpy unimportable.

numpy is not a runtime dependency: every seeded draw (loss injection,
barrier-entry skew, random fault plans) and the latency statistics are
pure Python.  A subprocess poisons ``sys.modules["numpy"]`` so any import
of it raises, then drives each path that draws random numbers.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None

    from repro.analysis.experiments import measure_barrier
    from repro.analysis.nbc_overlap import measure_nbc_overlap
    from repro.analysis.stats import summarize
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.cluster.runner import default_group, run_on_group
    from repro.core.barrier import barrier
    from repro.faults.plan import FaultPlan, LossRule
    from repro.faults.soak import run_soak_combo, soak_jobs
    from repro.gm.constants import BarrierReliability
    from repro.nic.nic import NicParams

    # A lossy NIC-PE barrier on the separate reliable barrier stream.
    cluster = build_cluster(ClusterConfig(
        num_nodes=8,
        nic_params=NicParams(
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
        ),
        fault_plan=FaultPlan(seed=3, loss=[LossRule(rate=0.02)]),
    ))

    def prog(ctx):
        for _ in range(30):
            yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")

    run_on_group(cluster, prog, group=default_group(cluster),
                 max_events=5_000_000)
    assert cluster.faults.drops > 0, "the loss plan dropped nothing"

    # Seeded entry skew, blocking and non-blocking.
    m = measure_barrier(ClusterConfig(num_nodes=8, seed=5), nic_based=True,
                        repetitions=10, warmup=1, skew_max_us=20.0)
    summarize(m.per_barrier_us)
    measure_nbc_overlap(ClusterConfig(num_nodes=4, seed=5), iterations=3,
                        compute_us=30.0, skew_max_us=20.0)

    # FaultPlan.random (integers, uniform, random) and a seeded crash.
    for family in ("loss", "crash"):
        job = soak_jobs(7, family=family)[0]
        run_soak_combo(**job.params, flight_dump_dir=None)

    assert sys.modules.get("numpy") is None
    print("numpy-free ok")
""")


def test_simulator_runs_without_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, cwd=tmp_path,
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "numpy-free ok" in out.stdout
