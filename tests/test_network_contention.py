"""Network contention behaviour: output-port hotspots, trunk congestion
and their effect on barrier latency."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.core.barrier import barrier
from repro.gm.events import RecvEvent
from repro.network.topology import multi_switch_topology
from repro.sim.primitives import Timeout


class TestHotspot:
    def test_incast_serializes_at_receiver(self):
        """Many senders targeting one node serialize on its down-channel
        and NIC; per-message spacing at the receiver reflects the
        bottleneck stage."""
        n = 8
        cluster = build_cluster(ClusterConfig(num_nodes=n))
        ports = [cluster.open_port(i, 2) for i in range(n)]
        arrivals = []

        def sender(rank):
            yield from ports[rank].send_with_callback(
                0, 2, payload=rank, size_bytes=1024
            )

        def receiver():
            yield from ports[0].ensure_receive_buffers(2 * n)
            for _ in range(n - 1):
                yield from ports[0].receive_where(
                    lambda e: isinstance(e, RecvEvent)
                )
                arrivals.append(cluster.now)

        for rank in range(1, n):
            cluster.spawn(sender(rank))
        cluster.spawn(receiver())
        cluster.run(max_events=5_000_000)
        assert len(arrivals) == n - 1
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # Sustained serialization: consecutive deliveries are spaced by
        # at least the NIC's per-message service time (not bunched).
        assert min(gaps) > 3.0

    def test_background_hotspot_slows_barrier(self):
        """A many-to-one flood through the same switch inflates barrier
        latency for the victim's partners but the barrier stays correct."""

        def run(with_flood):
            n = 8
            cluster = build_cluster(ClusterConfig(num_nodes=n))
            group = tuple((i, 2) for i in range(n))
            ports = [cluster.open_port(i, 2) for i in range(n)]
            flood_ports = [cluster.open_port(i, 4) for i in range(n)]
            done = {}

            def barrier_prog(rank):
                for _ in range(3):
                    yield from barrier(ports[rank], group, rank)
                done[rank] = cluster.now

            def flooder(rank):
                for i in range(30):
                    yield from flood_ports[rank].send_with_callback(
                        0, 4, payload=i, size_bytes=2048
                    )
                    yield Timeout(40.0)

            def sink():
                got = 0
                while got < 30 * 3:
                    yield from flood_ports[0].ensure_receive_buffers(16)
                    yield from flood_ports[0].receive_where(
                        lambda e: isinstance(e, RecvEvent)
                    )
                    got += 1

            for rank in range(n):
                cluster.spawn(barrier_prog(rank))
            if with_flood:
                for rank in (1, 2, 3):
                    cluster.spawn(flooder(rank))
                cluster.spawn(sink())
            cluster.run(max_events=20_000_000)
            return max(done.values())

        calm = run(False)
        stormy = run(True)
        assert stormy > calm


class TestTrunkContention:
    def test_cross_switch_traffic_contends_on_trunk(self):
        """Multiple flows crossing the same inter-switch trunk serialize
        there; intra-switch flows are unaffected."""
        topo = multi_switch_topology(30, switch_radix=16)
        cluster = build_cluster(ClusterConfig(num_nodes=30, topology=topo))
        # Nodes 0-14 on leaf A, 15-29 on leaf B (radix 16 => 15 per leaf).
        senders = [0, 1, 2, 3]
        receivers = [15, 16, 17, 18]
        ports = {}
        for nid in senders + receivers:
            ports[nid] = cluster.open_port(nid, 2)
        finish = {}

        def sender(src, dst):
            for i in range(10):
                yield from ports[src].send_with_callback(
                    dst, 2, payload=i, size_bytes=3000
                )
                yield Timeout(35.0)

        def receiver(dst):
            got = 0
            while got < 10:
                yield from ports[dst].ensure_receive_buffers(8)
                yield from ports[dst].receive_where(
                    lambda e: isinstance(e, RecvEvent)
                )
                got += 1
            finish[dst] = cluster.now

        for s, d in zip(senders, receivers):
            cluster.spawn(sender(s, d))
            cluster.spawn(receiver(d))
        cluster.run(max_events=20_000_000)
        assert len(finish) == 4
        # All flows complete; the shared trunk has carried 40 packets of
        # cross-leaf traffic.
        trunk_bytes = sum(
            ch.bytes_sent
            for sw in cluster.network.switches
            for ch in [
                sw.output_channel(p)
                for p in range(sw.num_ports)
                if sw.output_channel(p) is not None
            ]
        )
        assert trunk_bytes > 0


class TestOutputStalls:
    #: Each switch's ``output_stalls`` total after twelve NIC-PE barriers
    #: on 64 nodes (the 16-port switch tree, LANai 4.3; the perfbench
    #: fabric64 NIC loop).  A switch counts a stall when it routes a
    #: packet to an output channel with traffic queued or on the wire,
    #: settled against the channel's reserved transmit end.
    STALLS = {
        "switch0": 216, "switch1": 230, "switch2": 235,
        "switch3": 292, "switch4": 45, "switch5": 1057,
    }

    def test_nic_pe_64_loop(self):
        from repro.analysis import experiments
        from repro.analysis.calibration import LANAI_4_3_SYSTEM
        from repro.cluster.runner import run_on_group

        with build_cluster(LANAI_4_3_SYSTEM.cluster_config(64)) as cluster:
            run_on_group(
                cluster, experiments._barrier_loop_program,
                max_events=5_000_000, nic_based=True, algorithm="pe",
                dimension=None, repetitions=12, skew_max_us=0.0,
                enter_times={}, exit_times={},
            )
            stalls = {
                sw.name: sum(sw.output_stalls.values())
                for sw in cluster.network.switches
            }
        assert stalls == self.STALLS
