#!/usr/bin/env python
"""One-sided Get/Put: a cluster status board without a server process.

Node 0 exposes a pinned region as a status board.  Every other node PUTs
its heartbeat/progress into its own slot -- the monitor's host CPU is
never interrupted -- and the monitor occasionally reads its own memory
(it IS its memory) while a remote controller GETs the whole board
without involving node 0's host either.

This is the "Get/Put" higher layer the paper's Section 8 mentions,
running over the same simulated GM stack as the barriers.

Run:  python examples/onesided_status_board.py
"""

from repro import ClusterConfig, LANAI_4_3, build_cluster
from repro.gm.onesided import OneSidedPort
from repro.sim.primitives import Timeout

NODES = 8
ROUNDS = 5
SLOT_BYTES = 64


def main() -> None:
    with build_cluster(ClusterConfig(num_nodes=NODES, lanai_model=LANAI_4_3)) as cluster:
        status_board(cluster)


def status_board(cluster) -> None:
    """Run the board on ``cluster`` and print what the controller saw."""
    ports = [cluster.open_port(i, 2) for i in range(NODES)]
    onesided = [OneSidedPort(p) for p in ports]

    # Node 0 exposes the board: one slot per node.
    board = onesided[0].expose_region(NODES * SLOT_BYTES)

    def worker(rank):
        """Simulate work; publish progress via PUT after each phase."""
        for round_no in range(1, ROUNDS + 1):
            yield from cluster.node(rank).compute(40.0 + 7.0 * rank)
            yield from onesided[rank].put(
                board.handle,
                rank * SLOT_BYTES,
                {"round": round_no, "t": round(cluster.now, 1)},
                SLOT_BYTES,
            )

    def controller():
        """Node 7 polls the board with GETs -- neither it nor node 0's
        host processes exchange any two-sided messages."""
        snapshots = []
        for _ in range(6):
            yield Timeout(150.0)
            row = []
            for rank in range(1, NODES):
                v = yield from onesided[7].get_blocking(
                    board.handle, rank * SLOT_BYTES, SLOT_BYTES
                )
                row.append(v["round"] if v else 0)
            snapshots.append((round(cluster.now, 1), row))
        return snapshots

    for rank in range(1, NODES):
        cluster.spawn(worker(rank))
    ctrl = cluster.spawn(controller())
    cluster.run(max_events=5_000_000)

    print(f"status board on node 0, {NODES - 1} workers publishing via PUT,")
    print("controller on node 7 polling via GET (no host involvement on node 0):\n")
    print(f"{'time (us)':>10}  progress of workers 1..7 (round #)")
    for t, row in ctrl.result:
        print(f"{t:>10}  {row}")
    final = {r: board.data.get(r * SLOT_BYTES) for r in range(1, NODES)}
    assert all(v and v["round"] == ROUNDS for v in final.values())
    print(f"\nall workers reached round {ROUNDS}; node 0's host consumed "
          f"{len(ports[0].port.event_queue)} events (zero).")


if __name__ == "__main__":
    main()
