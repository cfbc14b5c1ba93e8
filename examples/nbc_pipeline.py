#!/usr/bin/env python
"""Non-blocking collectives: pipeline an Iallreduce behind computation.

The classic overlap pattern (think gradient aggregation): each
iteration reduces the *previous* iteration's value across all ranks
while the current iteration's compute runs, then waits -- so the
all-reduce latency hides behind useful work instead of extending the
critical path.  The same workload with the blocking ``allreduce``
serializes compute and communication.

This uses the ``repro.mpi.nbc`` schedule engine: the first
``iallreduce`` compiles a recursive-doubling schedule, every later call
is a schedule-cache hit (the printed cache counters prove it).

Run:  python examples/nbc_pipeline.py
"""

from repro import ClusterConfig, LANAI_4_3, build_cluster
from repro.cluster.runner import run_on_group
from repro.mpi import Communicator

ITERATIONS = 12
WORK_US = 80.0  # compute per iteration
CHUNK_US = 8.0  # compute chunk between completion polls
NODES = 8


def blocking_program(ctx):
    """Compute, then reduce: communication extends every iteration."""
    comm = Communicator(ctx.port, ctx.group, ctx.rank)
    total = 0
    for it in range(ITERATIONS):
        yield from ctx.node.compute(WORK_US)
        total = yield from comm.allreduce(comm.rank + it, op="sum")
    return ctx.now, total, {}


def pipelined_program(ctx):
    """Start the reduce first, compute while the schedule progresses."""
    comm = Communicator(ctx.port, ctx.group, ctx.rank)
    total = 0
    for it in range(ITERATIONS):
        request = yield from comm.iallreduce(comm.rank + it, op="sum")
        remaining = WORK_US
        while remaining > 0:
            chunk = min(CHUNK_US, remaining)
            yield from ctx.node.compute(chunk)
            remaining -= chunk
            yield from request.test()  # cheap poll between chunks
        total = yield from request.wait()
    return ctx.now, total, comm.nbc.cache.stats.as_dict()


def main() -> None:
    def run(program):
        with build_cluster(
            ClusterConfig(num_nodes=NODES, lanai_model=LANAI_4_3)
        ) as cluster:
            results = run_on_group(cluster, program)
        finish = max(now for now, _, _ in results)
        return finish, results[0]

    blocking, (_, btotal, _) = run(blocking_program)
    pipelined, (_, ptotal, cache) = run(pipelined_program)
    assert btotal == ptotal  # same reduction, same answer

    print(f"workload: {ITERATIONS} iterations of {WORK_US:.0f} us compute "
          f"+ {NODES}-rank sum Iallreduce (LANai 4.3)")
    print(f"  blocking allreduce:  {blocking:9.2f} us total "
          f"({blocking / ITERATIONS:.2f} us/iter)")
    print(f"  pipelined Iallreduce:{pipelined:9.2f} us total "
          f"({pipelined / ITERATIONS:.2f} us/iter)")
    saved = (blocking - pipelined) / ITERATIONS
    print(f"  overlap saves {saved:.2f} us per iteration "
          f"({100 * saved * ITERATIONS / blocking:.1f}% of total runtime)")
    print(f"  schedule cache: {cache['compiles']} compile, "
          f"{cache['hits']} warm hits across {ITERATIONS} calls")


if __name__ == "__main__":
    main()
