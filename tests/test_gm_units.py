"""Unit tests for GM data structures: tokens, ports, packets, driver."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.gm.constants import RESERVED_PORTS
from repro.gm.port import NicPort, PortClosedError
from repro.gm.tokens import BarrierSendToken, PeStep, ReceiveToken, SendToken
from repro.network.packet import HEADER_BYTES, Packet, PacketType
from repro.sim.engine import Simulator


class TestPacket:
    def test_size_includes_header(self):
        p = Packet(PacketType.DATA, 0, 2, 1, 2, payload_bytes=100)
        assert p.size_bytes == HEADER_BYTES + 100

    def test_barrier_type_flags(self):
        assert PacketType.BARRIER_PE.is_barrier
        assert PacketType.BARRIER_GATHER.is_barrier
        assert PacketType.BARRIER_BCAST.is_barrier
        assert not PacketType.BARRIER_ACK.is_barrier
        assert not PacketType.DATA.is_barrier
        assert PacketType.ACK.is_control
        assert PacketType.BARRIER_REJECT.is_control
        # Plain member attributes, one per member, never a member.
        assert len(PacketType) == 14
        assert [p.wire for p in PacketType] == [p.value for p in PacketType]
        assert {p for p in PacketType if p.is_collective} == {
            PacketType.COLL_REDUCE, PacketType.COLL_BCAST,
        }
        assert {p for p in PacketType if p.is_onesided} == {
            PacketType.PUT, PacketType.GET_REQ, PacketType.GET_REPLY,
        }
        assert not PacketType.HEARTBEAT.is_control

    def test_hop_consumes_route(self):
        p = Packet(PacketType.DATA, 0, 2, 1, 2, route=[3, 1])
        assert p.hop() == 3
        assert p.route == [1]

    def test_hop_on_exhausted_route(self):
        p = Packet(PacketType.DATA, 0, 2, 1, 2, route=[])
        with pytest.raises(RuntimeError, match="exhausted"):
            p.hop()

    def test_packet_ids_unique(self):
        a = Packet(PacketType.DATA, 0, 2, 1, 2)
        b = Packet(PacketType.DATA, 0, 2, 1, 2)
        assert a.packet_id != b.packet_id


class TestTokens:
    def test_pe_step_must_do_something(self):
        with pytest.raises(ValueError):
            PeStep((0, 2), send=False, recv=False)

    def test_barrier_token_validates_algorithm(self):
        with pytest.raises(ValueError, match="unknown barrier algorithm"):
            BarrierSendToken(src_port=2, algorithm="tree")

    def test_gb_token_builds_gather_pending(self):
        t = BarrierSendToken(
            src_port=2, algorithm="gb", parent=(0, 2),
            children=[(3, 2), (4, 2)],
        )
        assert t.gather_pending == {(3, 2), (4, 2)}
        assert not t.is_root

    def test_pe_current_peer(self):
        t = BarrierSendToken(
            src_port=2, algorithm="pe",
            steps=[PeStep((1, 2)), PeStep((3, 2))],
        )
        assert t.current_peer == (1, 2)
        t.node_index = 1
        assert t.current_peer == (3, 2)

    def test_send_token_not_barrier(self):
        assert not SendToken(src_port=2, dst_node=1, dst_port=2).is_barrier
        assert BarrierSendToken(
            src_port=2, algorithm="pe", steps=[PeStep((1, 2))]
        ).is_barrier


class TestNicPort:
    def _port(self):
        return NicPort(Simulator(), node_id=0, port_id=2)

    def test_open_close_lifecycle(self):
        p = self._port()
        assert not p.is_open
        p.open()
        assert p.is_open and p.generation == 1
        p.close()
        assert not p.is_open
        p.open()
        assert p.generation == 2

    def test_double_open_rejected(self):
        p = self._port()
        p.open()
        with pytest.raises(RuntimeError, match="already open"):
            p.open()

    def test_double_close_rejected(self):
        p = self._port()
        with pytest.raises(RuntimeError, match="already closed"):
            p.close()

    def test_send_token_accounting(self):
        p = self._port()
        p.open()
        for _ in range(p.send_tokens_total):
            p.take_send_token()
        with pytest.raises(RuntimeError, match="out of send tokens"):
            p.take_send_token()
        p.return_send_token()
        p.take_send_token()

    def test_send_token_double_return(self):
        p = self._port()
        p.open()
        with pytest.raises(RuntimeError, match="double return"):
            p.return_send_token()

    def test_recv_token_size_matching(self):
        p = self._port()
        p.open()
        p.post_recv_token(ReceiveToken(2, 64))
        p.post_recv_token(ReceiveToken(2, 4096))
        # A 100-byte message skips the too-small 64-byte buffer.
        tok = p.take_recv_token(100)
        assert tok is not None and tok.size_bytes == 4096
        assert p.take_recv_token(100) is None
        assert p.take_recv_token(10) is not None

    def test_close_clears_barrier_state(self):
        p = self._port()
        p.open()
        p.barrier_send_token = BarrierSendToken(
            src_port=2, algorithm="pe", steps=[PeStep((1, 2))]
        )
        p.post_barrier_buffer(ReceiveToken(2, 16))
        p.close()
        assert p.barrier_send_token is None
        assert p.take_barrier_buffer() is None

    def test_operations_on_closed_port(self):
        p = self._port()
        with pytest.raises(PortClosedError):
            p.take_send_token()
        with pytest.raises(PortClosedError):
            p.post_recv_token(ReceiveToken(2, 64))


class TestDriver:
    def test_open_specific_and_auto(self):
        cluster = build_cluster(ClusterConfig(num_nodes=1))
        drv = cluster.node(0).driver
        p5 = drv.open_port(5)
        assert p5.port_id == 5
        auto = drv.open_port()
        assert auto.port_id not in RESERVED_PORTS
        assert auto.port_id != 5

    def test_reserved_ports_rejected(self):
        cluster = build_cluster(ClusterConfig(num_nodes=1))
        for pid in RESERVED_PORTS:
            with pytest.raises(ValueError, match="reserved"):
                cluster.node(0).driver.open_port(pid)

    def test_port_exhaustion(self):
        cluster = build_cluster(ClusterConfig(num_nodes=1))
        drv = cluster.node(0).driver
        opened = []
        while True:
            try:
                opened.append(drv.open_port())
            except RuntimeError as e:
                assert "no free user port" in str(e)
                break
        # 8 ports minus 3 reserved = 5 user ports.
        assert len(opened) == 5

    def test_close_returns_port_for_reuse(self):
        cluster = build_cluster(ClusterConfig(num_nodes=1))
        drv = cluster.node(0).driver
        p = drv.open_port(2)
        drv.close_port(p)
        p2 = drv.open_port(2)
        assert p2.port.generation == 2
