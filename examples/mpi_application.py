#!/usr/bin/env python
"""A parallel application on the MPI-like layer: distributed dot products.

Runs a toy iterative solver skeleton (the communication pattern of
conjugate gradient: one allreduce per iteration for the dot product, one
barrier per convergence check) on 8 nodes, with NIC-based vs host-based
collectives, and reports the per-iteration communication cost.

This is the workload shape the paper's introduction motivates: the
cheaper the synchronization, the finer the granularity the cluster can
support.

Run:  python examples/mpi_application.py
"""

from repro import ClusterConfig, LANAI_4_3, build_cluster
from repro.cluster.runner import run_on_group
from repro.mpi import Communicator, MpiParams

NODES = 8
ITERATIONS = 15
LOCAL_WORK_US = 40.0  # local axpy/matvec slice per iteration


def solver(ctx, *, nic_collectives: bool):
    comm = Communicator(
        ctx.port, ctx.group, ctx.rank,
        params=MpiParams(nic_collectives=nic_collectives),
    )
    # Each rank holds a slice of the vectors; model the numerics as a
    # local value so the allreduce result is checkable.
    local = float(ctx.rank + 1)
    residual_history = []
    for it in range(ITERATIONS):
        yield from ctx.node.compute(LOCAL_WORK_US)
        # Global dot product: the allreduce every CG iteration needs.
        dot = yield from comm.allreduce(local * local, op="sum")
        residual_history.append(dot)
        # Convergence check round.
        yield from comm.barrier()
    return ctx.now, residual_history[-1]


def main() -> None:
    expected_dot = sum(float(r + 1) ** 2 for r in range(NODES))
    print(f"CG-style skeleton: {ITERATIONS} iterations x "
          f"({LOCAL_WORK_US:.0f} us local work + allreduce + barrier), "
          f"{NODES} nodes, LANai 4.3\n")
    totals = {}
    for nic in (False, True):
        with build_cluster(
            ClusterConfig(num_nodes=NODES, lanai_model=LANAI_4_3)
        ) as cluster:
            results = run_on_group(cluster, solver, nic_collectives=nic)
        finish = max(t for t, _ in results)
        dot = results[0][1]
        assert abs(dot - expected_dot) < 1e-9, "allreduce result wrong!"
        totals[nic] = finish
        label = "NIC-based" if nic else "host-based"
        per_iter = finish / ITERATIONS
        comm_cost = per_iter - LOCAL_WORK_US
        print(f"  {label:>10} collectives: {finish:8.1f} us total, "
              f"{per_iter:6.1f} us/iter ({comm_cost:5.1f} us communication)")
    saved = totals[False] - totals[True]
    print(f"\nNIC offload saves {saved:.1f} us "
          f"({100 * saved / totals[False]:.1f}% of runtime); verified "
          f"global dot product = {expected_dot}")


if __name__ == "__main__":
    main()
