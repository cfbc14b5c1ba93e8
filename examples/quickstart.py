#!/usr/bin/env python
"""Quickstart: run one NIC-based barrier on a simulated 8-node cluster.

This reproduces the paper's headline operation in a few lines: build the
LANai 7.2 testbed, have one process per node enter a pairwise-exchange
(PE) barrier executed by the NIC firmware, and report the latency.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, LANAI_7_2, barrier, build_cluster
from repro.cluster.runner import run_on_group


def program(ctx):
    """One rank: enter the barrier, return the exit timestamp."""
    enter = ctx.now
    yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")
    return (enter, ctx.now)


def main() -> None:
    with build_cluster(ClusterConfig(num_nodes=8, lanai_model=LANAI_7_2)) as cluster:
        results = run_on_group(cluster, program)

    print("NIC-based PE barrier on 8 nodes (LANai 7.2, 66 MHz):")
    for rank, (enter, exit_) in enumerate(results):
        print(f"  rank {rank}: entered {enter:7.2f} us, exited {exit_:7.2f} us")
    latency = max(e for _, e in results) - max(s for s, _ in results)
    print(f"barrier latency: {latency:.2f} us "
          f"(paper measured 49.25 us on this hardware)")


if __name__ == "__main__":
    main()
