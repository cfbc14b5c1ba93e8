"""Tests for NIC-assisted multidestination sends (the paper's [2])."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.gm.events import RecvEvent, SentEvent
from repro.gm.tokens import MulticastSendToken
from repro.network.packet import PacketType
from repro.nic.nic import NicParams


def fanout_cluster(n=5):
    cluster = build_cluster(ClusterConfig(num_nodes=n))
    ports = [cluster.open_port(i, 2) for i in range(n)]
    return cluster, ports


class TestToken:
    def test_needs_destinations(self):
        with pytest.raises(ValueError, match="at least one"):
            MulticastSendToken(src_port=2, destinations=[])

    def test_duplicate_destinations_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MulticastSendToken(src_port=2, destinations=[(1, 2), (1, 2)])

    def test_dispatch_flags(self):
        t = MulticastSendToken(src_port=2, destinations=[(1, 2)])
        assert t.is_multicast and not t.is_barrier


class TestDelivery:
    def test_all_destinations_receive(self):
        cluster, ports = fanout_cluster(6)
        got = {}

        def sender():
            yield from ports[0].multicast_send_with_callback(
                [(i, 2) for i in range(1, 6)], size_bytes=128, payload="m"
            )

        def receiver(i):
            yield from ports[i].provide_receive_buffer()
            ev = yield from ports[i].receive_where(
                lambda e: isinstance(e, RecvEvent)
            )
            got[i] = (ev.payload, ev.src_node)

        cluster.spawn(sender())
        for i in range(1, 6):
            cluster.spawn(receiver(i))
        cluster.run(max_events=3_000_000)
        assert got == {i: ("m", 0) for i in range(1, 6)}

    def test_single_send_token_consumed_and_returned(self):
        cluster, ports = fanout_cluster(4)
        events = []

        def sender():
            tok = yield from ports[0].multicast_send_with_callback(
                [(i, 2) for i in range(1, 4)], payload="x"
            )
            ev = yield from ports[0].receive_where(
                lambda e: isinstance(e, SentEvent)
            )
            events.append((tok.token_id, ev.token_id))

        def receiver(i):
            yield from ports[i].provide_receive_buffer()
            yield from ports[i].receive_where(lambda e: isinstance(e, RecvEvent))

        cluster.spawn(sender())
        for i in range(1, 4):
            cluster.spawn(receiver(i))
        cluster.run(max_events=3_000_000)
        # Exactly one SentEvent, matching the token, after ALL acks.
        assert events == [(events[0][0], events[0][0])]
        assert ports[0].port.send_tokens_free == ports[0].port.send_tokens_total

    def test_one_host_dma_regardless_of_fanout(self):
        """The defining property of [2]: payload crosses the PCI bus once."""
        cluster, ports = fanout_cluster(6)

        def sender():
            yield from ports[0].multicast_send_with_callback(
                [(i, 2) for i in range(1, 6)], size_bytes=2048, payload="big"
            )

        def receiver(i):
            yield from ports[i].provide_receive_buffer()
            yield from ports[i].receive_where(lambda e: isinstance(e, RecvEvent))

        cluster.spawn(sender())
        for i in range(1, 6):
            cluster.spawn(receiver(i))
        cluster.run(max_events=3_000_000)
        sdma = cluster.node(0).nic.sdma_engine
        assert sdma.transfers == 1
        assert sdma.bytes_moved == 2048
        # ...but five packets hit the wire.
        assert cluster.network.tx_channel(0).packets_sent == 5

    def test_per_destination_loss_recovered_independently(self):
        cluster, ports = fanout_cluster(4)
        # Rebuild with retransmission-friendly params and loss on node 2.
        cluster = build_cluster(
            ClusterConfig(
                num_nodes=4,
                nic_params=NicParams(retransmit_timeout_us=300.0),
            )
        )
        ports = [cluster.open_port(i, 2) for i in range(4)]

        def drop_first_data(pkt):
            if pkt.ptype is PacketType.DATA and not hasattr(drop_first_data, "hit"):
                drop_first_data.hit = True
                return True
            return False

        cluster.network.rx_channel(2).loss_filter = drop_first_data
        got = {}

        def sender():
            yield from ports[0].multicast_send_with_callback(
                [(1, 2), (2, 2), (3, 2)], payload="r"
            )
            yield from ports[0].receive_where(lambda e: isinstance(e, SentEvent))
            got["returned"] = cluster.now

        def receiver(i):
            yield from ports[i].provide_receive_buffer()
            ev = yield from ports[i].receive_where(
                lambda e: isinstance(e, RecvEvent)
            )
            got[i] = cluster.now

        cluster.spawn(sender())
        for i in range(1, 4):
            cluster.spawn(receiver(i))
        cluster.run(max_events=3_000_000)
        assert set(got) == {1, 2, 3, "returned"}
        # Node 2's delivery needed the retransmission timeout; the others
        # did not wait for it.
        assert got[2] > 300.0
        assert got[1] < 150.0 and got[3] < 150.0
        # The token returned only after the slowest destination ACKed.
        assert got["returned"] >= got[2]

    def test_multicast_cheaper_for_host_than_looped_sends(self):
        """Host-side cost: one initiation vs k initiations.  Compare the
        time until the host is free to do other work."""

        def run(use_multicast):
            cluster, ports = fanout_cluster(6)
            free_at = {}

            def sender():
                dests = [(i, 2) for i in range(1, 6)]
                if use_multicast:
                    yield from ports[0].multicast_send_with_callback(
                        dests, size_bytes=512, payload="m"
                    )
                else:
                    for d in dests:
                        yield from ports[0].send_with_callback(
                            d[0], d[1], size_bytes=512, payload="m"
                        )
                free_at["t"] = cluster.now

            def receiver(i):
                yield from ports[i].provide_receive_buffer()
                yield from ports[i].receive_where(
                    lambda e: isinstance(e, RecvEvent)
                )

            cluster.spawn(sender())
            for i in range(1, 6):
                cluster.spawn(receiver(i))
            cluster.run(max_events=3_000_000)
            return free_at["t"]

        assert run(True) < run(False)
