"""Behavioural tests of the MCP state machines through a live 2-node
stack: ACK coalescing, retransmission paths, buffer backpressure, CPU
contention."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.gm.events import RecvEvent
from repro.network.packet import PacketType
from repro.nic.mcp.machine import Firmware
from repro.nic.nic import NicParams
from repro.sim.primitives import Hold, Timeout


def two_nodes(**cfg_kw):
    cluster = build_cluster(ClusterConfig(num_nodes=2, **cfg_kw))
    a = cluster.open_port(0, 2)
    b = cluster.open_port(1, 2)
    return cluster, a, b


def count_packets(cluster, node_id, ptype):
    # Count from the tx channel by instrumenting a wrapper is invasive;
    # use connection statistics instead where possible.
    raise NotImplementedError


class TestAckCoalescing:
    def test_burst_generates_fewer_acks_than_messages(self):
        """Delayed ACKs: a burst of N messages is acknowledged with far
        fewer than N ACK packets (GM's lazy acking).  A generous window
        is configured so several back-to-back arrivals (one every ~15 us
        through the 33 MHz NIC pipeline) coalesce per ACK."""
        cluster, a, b = two_nodes(nic_params=NicParams(ack_delay_us=50.0))
        n = 10

        def sender():
            for i in range(n):
                yield from a.send_with_callback(1, 2, payload=i)

        def receiver():
            yield from b.ensure_receive_buffers(2 * n)
            got = 0
            while got < n:
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                got += 1

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=2_000_000)
        acked = cluster.node(0).nic.connections[1].packets_acked
        assert acked == n
        # ACK packets that crossed the wire back to node 0: observe via
        # node 1's tx channel counter minus data-ish traffic (node 1 sent
        # nothing else).
        ack_packets = cluster.network.tx_channel(1).packets_sent
        assert ack_packets <= n / 2

    def test_immediate_ack_mode(self):
        """ack_delay_us=0 acks every packet (the pre-coalescing mode)."""
        cluster, a, b = two_nodes(nic_params=NicParams(ack_delay_us=0.0))
        n = 6

        def sender():
            for i in range(n):
                yield from a.send_with_callback(1, 2, payload=i)
                yield Timeout(50.0)

        def receiver():
            yield from b.ensure_receive_buffers(2 * n)
            for _ in range(n):
                yield from b.receive_where(lambda e: isinstance(e, RecvEvent))

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=2_000_000)
        assert cluster.network.tx_channel(1).packets_sent >= n


class TestRetransmissionPaths:
    def test_timer_retransmission_after_silent_loss(self):
        cluster, a, b = two_nodes(
            nic_params=NicParams(retransmit_timeout_us=300.0)
        )
        dropped = {"n": 0}

        def drop_first_data(pkt):
            if pkt.ptype is PacketType.DATA and dropped["n"] == 0:
                dropped["n"] += 1
                return True
            return False

        cluster.network.rx_channel(1).loss_filter = drop_first_data
        got = []

        def sender():
            yield from a.send_with_callback(1, 2, payload="x")

        def receiver():
            yield from b.provide_receive_buffer()
            ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
            got.append((cluster.now, ev.payload))

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=2_000_000)
        assert got and got[0][1] == "x"
        # Recovery came via the timer: total time > the timeout.
        assert got[0][0] > 300.0
        assert cluster.node(0).nic.connections[1].packets_retransmitted == 1

    def test_nack_storm_suppression(self):
        """Out-of-order arrivals trigger at most one outstanding NACK."""
        cluster, a, b = two_nodes(
            nic_params=NicParams(retransmit_timeout_us=5000.0)
        )

        def drop_first_two(pkt):
            if pkt.ptype is PacketType.DATA and pkt.seqno in (1, 2):
                if not hasattr(pkt, "_redelivered"):
                    # Drop originals only (retransmits are clones with the
                    # same seqno, so count drops instead).
                    drop_first_two.count = getattr(drop_first_two, "count", 0)
                    if drop_first_two.count < 2:
                        drop_first_two.count += 1
                        return True
            return False

        cluster.network.rx_channel(1).loss_filter = drop_first_two
        got = []

        def sender():
            for i in range(5):
                yield from a.send_with_callback(1, 2, payload=i)

        def receiver():
            yield from b.ensure_receive_buffers(10)
            while len(got) < 5:
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                got.append(ev.payload)

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=2_000_000)
        assert got == [0, 1, 2, 3, 4]
        # Go-back-N recovered with a bounded number of NACKs (no storm).
        assert cluster.node(1).nic.connections[0].nacks_sent <= 3

    def test_duplicate_data_dropped_and_reacked(self):
        cluster, a, b = two_nodes(
            nic_params=NicParams(retransmit_timeout_us=200.0)
        )

        def drop_first_ack(pkt):
            if pkt.ptype is PacketType.ACK and not hasattr(drop_first_ack, "hit"):
                drop_first_ack.hit = True
                return True
            return False

        cluster.network.rx_channel(0).loss_filter = drop_first_ack
        got = []

        def sender():
            yield from a.send_with_callback(1, 2, payload="once")

        def receiver():
            yield from b.provide_receive_buffer()
            while True:
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                got.append(ev.payload)

        cluster.spawn(sender())
        p = cluster.spawn(receiver())
        cluster.run(until=3000.0)
        # Delivered exactly once despite the retransmission.
        assert got == ["once"]
        assert cluster.node(1).nic.connections[0].duplicates_dropped >= 1
        p.kill()


class TestBufferBackpressure:
    def test_tx_buffer_exhaustion_blocks_sdma_not_crash(self):
        """With a tiny transmit pool, a burst is serialized, not lost."""
        cluster, a, b = two_nodes(
            nic_params=NicParams(tx_buffers=1, rx_buffers=32)
        )
        n = 8
        got = []

        def sender():
            for i in range(n):
                yield from a.send_with_callback(1, 2, payload=i, size_bytes=512)

        def receiver():
            yield from b.ensure_receive_buffers(2 * n)
            while len(got) < n:
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                got.append(ev.payload)

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=3_000_000)
        assert got == list(range(n))
        # The one transmit buffer carried the whole burst and came back.
        tx = cluster.node(0).nic.tx_buffers
        assert tx.capacity == 1 and tx.busy_us > 0
        assert tx.in_use == 0 and tx.queued == 0

    def test_rx_buffer_exhaustion_nacks_and_recovers(self):
        cluster, a, b = two_nodes(
            nic_params=NicParams(rx_buffers=1, retransmit_timeout_us=300.0)
        )
        n = 6
        got = []

        def sender():
            for i in range(n):
                yield from a.send_with_callback(1, 2, payload=i, size_bytes=256)

        def receiver():
            yield from b.ensure_receive_buffers(2 * n)
            while len(got) < n:
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                got.append(ev.payload)

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=3_000_000)
        assert got == list(range(n))


class TestNicCpuContention:
    def test_barrier_slows_under_foreign_traffic(self):
        """A message stream through the same NICs inflates barrier latency
        (shared NIC processor), without breaking it."""
        from repro.core.barrier import barrier

        def run(with_traffic):
            cluster = build_cluster(ClusterConfig(num_nodes=2))
            a = cluster.open_port(0, 2)
            b = cluster.open_port(1, 2)
            t1 = cluster.open_port(0, 4)
            t2 = cluster.open_port(1, 4)
            group = ((0, 2), (1, 2))
            done = {}

            def barrier_prog(port, rank):
                for _ in range(3):
                    yield from barrier(port, group, rank)
                done[rank] = cluster.now

            def traffic_src():
                # Paced above the ~20 us/message NIC pipeline service time
                # at 33 MHz so send tokens recycle via ACKs.
                for i in range(40):
                    yield from t1.send_with_callback(1, 4, payload=i, size_bytes=1024)
                    yield Timeout(30.0)

            def traffic_sink():
                got = 0
                while got < 40:
                    yield from t2.ensure_receive_buffers(10)
                    ev = yield from t2.receive_where(
                        lambda e: isinstance(e, RecvEvent)
                    )
                    got += 1

            cluster.spawn(barrier_prog(a, 0))
            cluster.spawn(barrier_prog(b, 1))
            if with_traffic:
                cluster.spawn(traffic_src())
                cluster.spawn(traffic_sink())
            cluster.run(max_events=5_000_000)
            return max(done.values())

        quiet = run(False)
        busy = run(True)
        assert busy > quiet


#: ``Nic.machines`` order.
MACHINES = ("sdma", "send", "recv", "rdma")


def queue_charging_work(nic, machine):
    """Queue one work item on which ``machine`` charges the LANai."""
    if machine == "sdma":
        def step():
            yield nic.barrier_engine.charge["token_process"]

        nic.sdma_inbox.put(("firmware", step))
    elif machine == "send":
        ack = nic.make_packet(
            PacketType.ACK, dst_node=1, dst_port=0, src_port=0,
            payload={"cum_seqno": 0},
        )
        nic.send_queue.put((ack, False))
    elif machine == "recv":
        nic.recv_queue.put(nic.make_packet(
            PacketType.HEARTBEAT, dst_node=0, dst_port=0, src_port=0,
        ))
    else:
        nic.rdma_queue.put(("ack_gen", 1))


class TestMachineKill:
    """An MCP machine runs its ``_run()`` generator directly: killed
    mid-charge or while waiting on its queue, by ``Nic.crash()`` or a
    bare ``Process.kill()``, it completes with None, not failed, and
    the LANai unit a charge held goes back."""

    @pytest.mark.parametrize("how", ["crash", "kill"])
    @pytest.mark.parametrize("state", ["mid_charge", "queue_wait"])
    @pytest.mark.parametrize("machine", MACHINES)
    def test_killed_machine_completes_with_none(self, machine, state, how):
        with build_cluster(ClusterConfig(num_nodes=2)) as cluster:
            sim = cluster.sim
            nic = cluster.node(0).nic
            sim.run()  # every machine blocks on its queue
            process = nic.machines[MACHINES.index(machine)]
            assert process.name == f"nic0.{machine}"
            if state == "mid_charge":
                queue_charging_work(nic, machine)
                # Step until the machine holds the LANai: a granted hold
                # leaves its resource on the process until it resumes.
                while process._held is not nic.cpu_resource:
                    assert sim.step()
                assert type(process._current_wait) is Hold
                assert nic.cpu_resource.in_use == 1
            if how == "crash":
                nic.crash()
            else:
                process.kill()
            sim.run(max_events=1_000)
            for proc in nic.machines if how == "crash" else (process,):
                assert not proc.alive
                assert proc._exception is None
                assert proc.result is None
            assert nic.cpu_resource.in_use == 0


def test_lanai_charge_is_built_once_per_nic_and_operation():
    """``Firmware.charge`` holds one ``Hold`` per operation, built on
    first use and shared by every firmware object of the NIC."""
    with build_cluster(ClusterConfig(num_nodes=2)) as cluster:
        nic = cluster.node(0).nic
        engine = nic.barrier_engine
        assert "barrier_check" not in nic.lanai_charges  # not built yet
        charge = engine.charge["barrier_check"]
        assert engine.charge["barrier_check"] is charge
        assert Firmware(nic).charge["barrier_check"] is charge
        assert nic.lanai_charges["barrier_check"] is charge
        assert charge.resource is nic.cpu_resource
        assert charge.duration == nic.model.time("barrier_check")
        assert engine.charge["barrier_advance"] is not charge
        other = cluster.node(1).nic
        assert other.barrier_engine.charge["barrier_check"] is not charge
        with pytest.raises(KeyError):
            engine.charge["no_such_operation"]
