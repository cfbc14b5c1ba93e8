#!/usr/bin/env python
"""Fuzzy barrier: overlap host computation with a NIC-resident barrier.

The paper (Section 1): "Because the barrier algorithm is performed at
the NIC, the processor is free to perform computation while polling for
the barrier to complete.  This is known as a fuzzy barrier."

This example runs the same computation+barrier workload two ways --
blocking barrier after the work, vs fuzzy barrier overlapping the work --
and reports the time saved per iteration.

Run:  python examples/fuzzy_barrier_overlap.py
"""

from repro import ClusterConfig, LANAI_4_3, barrier, build_cluster, fuzzy_barrier
from repro.cluster.runner import run_on_group
from repro.sim.primitives import Timeout

ITERATIONS = 10
WORK_US = 60.0  # computation available per iteration
CHUNK_US = 5.0  # granularity of compute chunks between completion polls


def blocking_program(ctx):
    """Compute, then synchronize: work and barrier serialize."""
    for _ in range(ITERATIONS):
        yield from ctx.node.compute(WORK_US)
        yield from barrier(ctx.port, ctx.group, ctx.rank)
    return ctx.now


def fuzzy_program(ctx):
    """Initiate the barrier first, compute while the NIC runs it."""
    for _ in range(ITERATIONS):
        handle = yield from fuzzy_barrier(ctx.port, ctx.group, ctx.rank)
        remaining = WORK_US
        while remaining > 0:
            chunk = min(CHUNK_US, remaining)
            yield from ctx.node.compute(chunk)
            remaining -= chunk
            yield from handle.test()  # cheap poll between chunks
        yield from handle.wait()
    return ctx.now


def main() -> None:
    def run(program):
        with build_cluster(
            ClusterConfig(num_nodes=8, lanai_model=LANAI_4_3)
        ) as cluster:
            return max(run_on_group(cluster, program))

    blocking = run(blocking_program)
    fuzzy = run(fuzzy_program)

    print(f"workload: {ITERATIONS} iterations of {WORK_US:.0f} us compute "
          "+ 8-node barrier (LANai 4.3)")
    print(f"  blocking barrier: {blocking:9.2f} us total "
          f"({blocking / ITERATIONS:.2f} us/iter)")
    print(f"  fuzzy barrier:    {fuzzy:9.2f} us total "
          f"({fuzzy / ITERATIONS:.2f} us/iter)")
    saved = (blocking - fuzzy) / ITERATIONS
    print(f"  overlap saves {saved:.2f} us per iteration "
          f"({100 * saved * ITERATIONS / blocking:.1f}% of total runtime)")


if __name__ == "__main__":
    main()
