#!/usr/bin/env python
"""Multiple concurrent barriers per NIC (Section 3.4).

Two independent parallel jobs share the cluster: job A (ports 2) and
job B (ports 4) each run their own stream of barriers over the same
NICs.  The per-port barrier state on the NIC keeps them independent --
including when one job stalls -- while they contend for the NIC
processor.

Run:  python examples/concurrent_ports.py
"""

from repro import ClusterConfig, LANAI_4_3, barrier, build_cluster
from repro.sim.primitives import Timeout

NODES = 8
BARRIERS_PER_JOB = 5


def job(cluster, tag, port_id, stall_us, log):
    """Spawn one job: a barrier group on `port_id` across all nodes."""
    group = tuple((i, port_id) for i in range(NODES))

    def prog(port, rank):
        if stall_us and rank == 0:
            # Job's rank 0 is busy elsewhere for a while.
            yield Timeout(stall_us)
        for i in range(BARRIERS_PER_JOB):
            start = cluster.now
            yield from barrier(port, group, rank)
            if rank == 0:
                log.append((tag, i, start, cluster.now))

    for i in range(NODES):
        cluster.spawn(prog(cluster.open_port(i, port_id), i))


def main() -> None:
    log = []
    with build_cluster(ClusterConfig(num_nodes=NODES, lanai_model=LANAI_4_3)) as cluster:
        job(cluster, "A", port_id=2, stall_us=0.0, log=log)
        job(cluster, "B", port_id=4, stall_us=400.0, log=log)
        cluster.run(max_events=10_000_000)

    print(f"two jobs x {BARRIERS_PER_JOB} barriers on shared NICs "
          f"({NODES} nodes, LANai 4.3); job B's rank 0 stalls 400 us\n")
    print(f"{'job':>3} {'barrier':>7} {'start':>10} {'end':>10} {'latency':>9}")
    for tag, i, start, end in sorted(log, key=lambda r: r[3]):
        print(f"{tag:>3} {i:>7} {start:>10.2f} {end:>10.2f} {end - start:>9.2f}")

    a_done = max(end for tag, _, _, end in log if tag == "A")
    b_done = max(end for tag, _, _, end in log if tag == "B")
    print(f"\njob A finished at {a_done:.2f} us -- NOT delayed behind job B's")
    print(f"stall (job B finished at {b_done:.2f} us): per-port barrier state")
    print("keeps concurrent barriers independent (Section 3.4).")
    assert a_done < 400.0 + 200.0


if __name__ == "__main__":
    main()
