"""Host-processor utilization during barrier phases.

Section 1: "Another feature of our NIC-based barrier implementation is
better utilization of the host processor.  Because the barrier algorithm
is performed at the NIC, the processor is free to perform computation
while polling for the barrier to complete."

This module measures exactly that: a workload that interleaves
computation with barriers, reporting how much *useful* host compute each
configuration achieves per unit time.  Three configurations:

* ``host``  -- host-based barrier (the host runs the algorithm; no overlap);
* ``nic``   -- blocking NIC-based barrier (host idles while the NIC works);
* ``fuzzy`` -- fuzzy NIC-based barrier (host computes while the NIC works).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier as nic_barrier
from repro.core.barrier import fuzzy_barrier
from repro.core.host_barrier import host_barrier
from repro.sim.primitives import Timeout


@dataclass(frozen=True)
class UtilizationResult:
    """Outcome of one utilization run."""

    mode: str
    total_time_us: float
    useful_compute_us: float
    iterations: int

    @property
    def compute_fraction(self) -> float:
        """Fraction of wall time spent on application compute (mean per
        rank)."""
        return self.useful_compute_us / self.total_time_us

    @property
    def time_per_iteration_us(self) -> float:
        """Mean wall time per compute+barrier iteration."""
        return self.total_time_us / self.iterations


def measure_utilization(
    mode: str,
    *,
    num_nodes: int = 8,
    iterations: int = 10,
    work_per_iteration_us: float = 80.0,
    chunk_us: float = 5.0,
    config: Optional[ClusterConfig] = None,
) -> UtilizationResult:
    """Run the compute+barrier workload in the given ``mode``."""
    if mode not in ("host", "nic", "fuzzy"):
        raise ValueError(f"unknown mode {mode!r}")
    computed: Dict[int, float] = {}

    def program(ctx):
        done = 0.0
        for _ in range(iterations):
            if mode == "fuzzy":
                handle = yield from fuzzy_barrier(ctx.port, ctx.group, ctx.rank)
                remaining = work_per_iteration_us
                while remaining > 0:
                    step = min(chunk_us, remaining)
                    yield from ctx.node.compute(step)
                    done += step
                    remaining -= step
                    yield from handle.test()
                yield from handle.wait()
            else:
                yield from ctx.node.compute(work_per_iteration_us)
                done += work_per_iteration_us
                if mode == "nic":
                    yield from nic_barrier(ctx.port, ctx.group, ctx.rank)
                else:
                    yield from host_barrier(ctx.port, ctx.group, ctx.rank)
        computed[ctx.rank] = done

    with build_cluster(config or ClusterConfig(num_nodes=num_nodes)) as cluster:
        run_on_group(cluster, program, max_events=20_000_000)
        total = cluster.sim.now
    mean_compute = sum(computed.values()) / len(computed)
    return UtilizationResult(
        mode=mode,
        total_time_us=total,
        useful_compute_us=mean_compute,
        iterations=iterations,
    )


def utilization_comparison(
    *,
    num_nodes: int = 8,
    iterations: int = 10,
    work_per_iteration_us: float = 80.0,
    config: Optional[ClusterConfig] = None,
) -> Dict[str, UtilizationResult]:
    """All three modes on identical workloads."""
    return {
        mode: measure_utilization(
            mode,
            num_nodes=num_nodes,
            iterations=iterations,
            work_per_iteration_us=work_per_iteration_us,
            config=config,
        )
        for mode in ("host", "nic", "fuzzy")
    }
