#!/usr/bin/env python
"""Fine-grained BSP computation: the paper's motivating scenario.

Section 1: "The efficiency of barrier operations also affects the
granularity of a parallel computation.  If the barrier latency is high,
then the granularity must also be high.  With a lower latency barrier
operation finer-grained computation can be supported."

We run a bulk-synchronous iterative kernel (compute phase + barrier per
superstep, e.g. a stencil sweep) at several granularities and compare
parallel efficiency with host-based vs NIC-based barriers on 16 nodes.

Run:  python examples/fine_grained_bsp.py
"""

from repro import ClusterConfig, LANAI_4_3, barrier, build_cluster, host_barrier
from repro.analysis.tables import format_table
from repro.cluster.runner import run_on_group

SUPERSTEPS = 12
NODES = 16


def bsp_program(ctx, *, grain_us: float, nic_based: bool):
    """One rank of the BSP kernel: compute `grain_us`, synchronize,
    repeat.  A small deterministic imbalance (+-10%) models real stencil
    edge effects."""
    for step in range(SUPERSTEPS):
        imbalance = 1.0 + 0.1 * (((ctx.rank + step) % 5) - 2) / 2.0
        yield from ctx.node.compute(grain_us * imbalance)
        if nic_based:
            yield from barrier(ctx.port, ctx.group, ctx.rank)
        else:
            yield from host_barrier(ctx.port, ctx.group, ctx.rank)
    return ctx.now


def efficiency(total_us: float, grain_us: float) -> float:
    """Fraction of runtime spent computing (ideal = 1.0)."""
    return (SUPERSTEPS * grain_us) / total_us


def main() -> None:
    grains = [25.0, 50.0, 100.0, 200.0, 400.0]
    rows = []
    for grain in grains:
        totals = {}
        for nic_based in (False, True):
            with build_cluster(
                ClusterConfig(num_nodes=NODES, lanai_model=LANAI_4_3)
            ) as cluster:
                results = run_on_group(
                    cluster, bsp_program, grain_us=grain, nic_based=nic_based
                )
            totals[nic_based] = max(results)
        rows.append(
            [
                grain,
                totals[False],
                efficiency(totals[False], grain),
                totals[True],
                efficiency(totals[True], grain),
            ]
        )

    print(format_table(
        ["grain (us)", "host total", "host eff", "NIC total", "NIC eff"],
        rows,
        title=(
            f"BSP kernel, {SUPERSTEPS} supersteps, {NODES} nodes, "
            "LANai 4.3 -- parallel efficiency vs granularity"
        ),
    ))
    print()
    print("Reading: at coarse grain both barriers are amortized; as the")
    print("grain shrinks, the NIC-based barrier sustains usable efficiency")
    print("well below the granularity where the host-based barrier")
    print("dominates the runtime -- 'scalable fine-grained parallel")
    print("computation over clusters of workstations'.")


if __name__ == "__main__":
    main()
