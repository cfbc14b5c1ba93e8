"""Integration tests: GM point-to-point messaging across the full stack
(host API -> MCP -> fabric -> MCP -> host API)."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.gm.events import RecvEvent, SentEvent
from repro.gm.port import PortClosedError


def drive(cluster, *gens, max_events=2_000_000):
    procs = [cluster.spawn(g) for g in gens]
    cluster.run(max_events=max_events)
    for p in procs:
        assert not p.alive, f"{p.name} did not finish"
    return [p.result for p in procs]


class TestSendReceive:
    def test_basic_message_delivery(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)

        def sender():
            yield from a.send_with_callback(1, 2, size_bytes=64, payload="hello")

        def receiver():
            yield from b.provide_receive_buffer(4096)
            ev = yield from b.receive()
            return ev

        _, ev = drive(cluster, sender(), receiver())
        assert isinstance(ev, RecvEvent)
        assert ev.payload == "hello"
        assert ev.src_node == 0 and ev.src_port == 2
        assert ev.size_bytes == 64

    def test_send_completion_event_after_ack(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)

        def sender():
            token = yield from a.send_with_callback(1, 2, payload="x")
            ev = yield from a.receive()
            return (token.token_id, ev)

        def receiver():
            yield from b.provide_receive_buffer()
            yield from b.receive()

        (token_id, ev), _ = drive(cluster, sender(), receiver())
        assert isinstance(ev, SentEvent)
        assert ev.token_id == token_id
        # Flow control: the send token came back.
        assert a.port.send_tokens_free == a.port.send_tokens_total

    def test_messages_from_one_sender_arrive_in_order(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)
        count = 10

        def sender():
            for i in range(count):
                yield from a.send_with_callback(1, 2, payload=i)

        def receiver():
            got = []
            for _ in range(count):
                yield from b.provide_receive_buffer()
            while len(got) < count:
                ev = yield from b.receive()
                if isinstance(ev, RecvEvent):
                    got.append(ev.payload)
            return got

        _, got = drive(cluster, sender(), receiver())
        assert got == list(range(count))

    def test_bidirectional_simultaneous(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)

        def node(port, dst, tag):
            yield from port.provide_receive_buffer()
            yield from port.send_with_callback(dst, 2, payload=tag)
            ev = yield from port.receive_where(lambda e: isinstance(e, RecvEvent))
            return ev.payload

        ra, rb = drive(cluster, node(a, 1, "from-a"), node(b, 0, "from-b"))
        assert ra == "from-b"
        assert rb == "from-a"

    def test_large_message_takes_longer_than_small(self):
        def one(nbytes):
            cluster = build_cluster(ClusterConfig(num_nodes=2))
            a = cluster.open_port(0, 2)
            b = cluster.open_port(1, 2)

            def sender():
                yield from a.send_with_callback(1, 2, size_bytes=nbytes, payload="x")

            def receiver():
                yield from b.provide_receive_buffer(65536)
                yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                return cluster.now

            _, t = drive(cluster, sender(), receiver())
            return t

        assert one(4096) > one(0) + 20.0  # DMA + wire time scales with size

    def test_all_pairs_on_16_nodes(self):
        cluster = build_cluster(ClusterConfig(num_nodes=16))
        ports = [cluster.open_port(i, 2) for i in range(16)]

        def program(i):
            port = ports[i]
            for _ in range(15):
                yield from port.provide_receive_buffer()
            # Send one message to every other node.
            for j in range(16):
                if j != i:
                    yield from port.send_with_callback(j, 2, payload=(i, j))
            got = set()
            while len(got) < 15:
                ev = yield from port.receive_where(
                    lambda e: isinstance(e, RecvEvent)
                )
                got.add(ev.payload[0])
                assert ev.payload[1] == i
            return got

        results = drive(cluster, *[program(i) for i in range(16)],
                        max_events=10_000_000)
        for i, got in enumerate(results):
            assert got == set(range(16)) - {i}


class TestFlowControl:
    def test_send_token_exhaustion_raises(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        cluster.open_port(1, 2)  # never posts buffers: sends stay pending
        raised = {}

        def sender():
            try:
                for _ in range(a.port.send_tokens_total + 1):
                    yield from a.send_with_callback(1, 2, payload="x")
            except RuntimeError as e:
                raised["msg"] = str(e)

        cluster.spawn(sender())
        # Bounded run: the unreceivable messages retransmit indefinitely,
        # so we stop by simulated time rather than draining the heap.
        cluster.run(until=1000.0)
        assert "out of send tokens" in raised["msg"]

    def test_no_receive_token_nacks_then_recovers(self):
        """A message arriving with no posted receive buffer is NACKed and
        retried; posting the buffer later lets it complete."""
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)

        def sender():
            yield from a.send_with_callback(1, 2, payload="patience")

        def receiver():
            # Post the buffer only after a long delay.
            from repro.sim.primitives import Timeout

            yield Timeout(5000.0)
            yield from b.provide_receive_buffer()
            ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
            return ev.payload

        _, payload = drive(cluster, sender(), receiver())
        assert payload == "patience"
        conn = cluster.node(0).nic.connections[1]
        assert conn.packets_retransmitted >= 1

    def test_closed_port_send_raises(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        a.close()

        def sender():
            with pytest.raises(PortClosedError):
                yield from a.send_with_callback(1, 2)

        drive(cluster, sender())


class TestPinnedMemory:
    def test_pin_unpin_accounting(self):
        cluster = build_cluster(ClusterConfig(num_nodes=1))
        node = cluster.node(0)
        region = node.driver.pin(1024)
        assert node.memory.pinned_bytes == 1024
        node.driver.unpin(region)
        assert node.memory.pinned_bytes == 0

    def test_pin_cap_enforced(self):
        from repro.gm.memory import PinnedMemoryRegistry

        reg = PinnedMemoryRegistry(0, max_pinned_bytes=1000)
        reg.pin(800)
        with pytest.raises(MemoryError):
            reg.pin(300)

    def test_dma_check_rejects_unpinned(self):
        from repro.gm.memory import NotPinnedError, PinnedMemoryRegistry

        reg = PinnedMemoryRegistry(0)
        region = reg.pin(100)
        reg.unpin(region)
        with pytest.raises(NotPinnedError):
            reg.check(region, 50)
