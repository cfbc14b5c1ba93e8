"""Tests for the LANai cost model, DMA engines and SRAM buffer pools."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.nic.dma import DmaEngine
from repro.nic.lanai import (
    LANAI_4_3,
    LANAI_7_2,
    LANAI_9_2,
    OPERATIONS,
    LanaiModel,
)
from repro.nic.nic import NicParams
from repro.sim.engine import Simulator
from repro.sim.primitives import Interrupted, Resource, Timeout
from repro.sim.process import Process


class TestLanaiModel:
    def test_all_operations_priced(self):
        for model in (LANAI_4_3, LANAI_7_2, LANAI_9_2):
            for op in OPERATIONS:
                assert model.time(op) > 0

    def test_time_is_cycles_over_clock(self):
        assert LANAI_4_3.time("recv_packet") == pytest.approx(
            LANAI_4_3.cycles["recv_packet"] / 33.0
        )

    def test_doubling_clock_halves_time(self):
        for op in OPERATIONS:
            assert LANAI_7_2.time(op) == pytest.approx(LANAI_4_3.time(op) / 2)

    def test_generations_share_firmware_cycles(self):
        assert LANAI_4_3.cycles == LANAI_7_2.cycles == LANAI_9_2.cycles

    def test_unknown_operation(self):
        with pytest.raises(KeyError, match="unknown NIC operation"):
            LANAI_4_3.time("frobnicate")

    def test_with_clock(self):
        fast = LANAI_4_3.with_clock(132.0)
        assert fast.time("recv_packet") == pytest.approx(
            LANAI_4_3.time("recv_packet") / 4
        )

    def test_missing_cycles_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            LanaiModel(name="bad", clock_mhz=33.0, cycles={"poll_detect": 1})

    def test_unknown_cycles_rejected(self):
        cycles = dict(LANAI_4_3.cycles)
        cycles["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            LanaiModel(name="bad", clock_mhz=33.0, cycles=cycles)

    def test_non_positive_clock_rejected(self):
        with pytest.raises(ValueError):
            LanaiModel(name="bad", clock_mhz=0.0, cycles=dict(LANAI_4_3.cycles))


class TestDmaEngine:
    def test_transfer_time(self, sim):
        bus = Resource(sim, 1)
        eng = DmaEngine(sim, bus, pci_bandwidth_mbps=133.0, pci_setup_us=0.9)
        assert eng.transfer_time(0) == pytest.approx(0.9)
        assert eng.transfer_time(1330) == pytest.approx(0.9 + 10.0)

    def test_transfer_occupies_bus(self, sim):
        bus = Resource(sim, 1)
        sdma = DmaEngine(sim, bus, 133.0, 0.5, name="sdma")
        rdma = DmaEngine(sim, bus, 133.0, 0.5, name="rdma")
        done = []

        def xfer(eng, tag, nbytes):
            yield from eng.transfer(nbytes)
            done.append((tag, sim.now))

        Process(sim, xfer(sdma, "a", 1330))  # 10.5 us on the bus
        Process(sim, xfer(rdma, "b", 0))     # must wait: 10.5 + 0.5
        sim.run()
        assert done == [
            ("a", pytest.approx(10.5)),
            ("b", pytest.approx(11.0)),
        ]

    def test_counters(self, sim):
        bus = Resource(sim, 1)
        eng = DmaEngine(sim, bus, 133.0, 0.9)

        def xfer():
            yield from eng.transfer(100)

        Process(sim, xfer())
        sim.run()
        assert eng.transfers == 1
        assert eng.bytes_moved == 100

    @pytest.mark.parametrize("action", ["interrupt", "kill"])
    def test_struck_transfers_close_busy_time_and_free_the_bus(self, action):
        sim = Simulator(metrics_enabled=True)
        bus = Resource(sim, 1)
        sdma = DmaEngine(sim, bus, 133.0, 0.5, name="sdma")
        rdma = DmaEngine(sim, bus, 133.0, 0.5, name="rdma")
        log = []

        def xfer(eng, tag, nbytes):
            try:
                yield from eng.transfer(nbytes)
                log.append((tag, sim.now))
            except Interrupted:
                log.append((tag, "interrupted", sim.now))

        a = Process(sim, xfer(sdma, "a", 1330))  # holds the bus 0-10.5
        b = Process(sim, xfer(rdma, "b", 1330))  # queued behind a
        Process(sim, xfer(rdma, "c", 0))         # queued behind b
        sim.schedule(2.0, getattr(b, action))    # struck while queued
        sim.schedule(4.0, getattr(a, action))    # struck while holding
        sim.run()
        struck = [("b", "interrupted", 2.0), ("a", "interrupted", 4.0)]
        assert log == (struck if action == "interrupt" else []) + [("c", 4.5)]
        snap = sim.metrics.snapshot()
        # a's busy interval closes at the strike and counts no transfer;
        # b never held the bus, so only c's wait is observed.
        assert snap["sdma.busy.busy_us"] == pytest.approx(4.0)
        assert snap["sdma.transfers"] == 0
        assert snap["rdma.busy.busy_us"] == pytest.approx(0.5)
        assert snap["rdma.transfers"] == 1
        assert snap["rdma.pci_wait_us.count"] == 1
        assert snap["rdma.pci_wait_us.max"] == pytest.approx(4.0)
        assert bus.in_use == 0 and bus.queued == 0

    def test_negative_size_rejected(self, sim):
        bus = Resource(sim, 1)
        eng = DmaEngine(sim, bus, 133.0, 0.9)
        gen = eng.transfer(-1)
        with pytest.raises(ValueError, match="negative"):
            next(gen)

    def test_invalid_params(self, sim):
        bus = Resource(sim, 1)
        with pytest.raises(ValueError):
            DmaEngine(sim, bus, 0.0, 0.9)
        with pytest.raises(ValueError):
            DmaEngine(sim, bus, 133.0, -0.1)


def nic_pools(tx_buffers=1, rx_buffers=2):
    """A 1-node cluster's NIC: its SRAM pools, idle (no traffic)."""
    cluster = build_cluster(
        ClusterConfig(
            num_nodes=1,
            nic_params=NicParams(tx_buffers=tx_buffers, rx_buffers=rx_buffers),
        )
    )
    return cluster.sim, cluster.node(0).nic


class TestBufferPool:
    """The NIC's SRAM buffer pools are plain ``Resource`` s: SDMA claims
    a transmit buffer with ``yield request()``, RECV a receive buffer
    with ``try_request()``."""

    def test_try_acquire_until_empty(self):
        _, nic = nic_pools(rx_buffers=2)
        pool = nic.rx_buffers
        assert isinstance(pool, Resource)
        assert pool.try_request()
        assert pool.try_request()
        assert not pool.try_request()
        assert pool.in_use == 2
        pool.release()
        assert pool.try_request()

    def test_blocking_acquire(self):
        sim, nic = nic_pools(tx_buffers=1)
        pool = nic.tx_buffers
        order = []

        def holder():
            yield pool.request()
            order.append(("got-1", sim.now))
            yield Timeout(5.0)
            pool.release()

        def waiter(tag):
            yield pool.request()
            order.append((tag, sim.now))
            yield Timeout(1.0)
            pool.release()

        Process(sim, holder())
        Process(sim, waiter("got-2"))
        Process(sim, waiter("got-3"))
        sim.run()
        assert order == [("got-1", 0.0), ("got-2", 5.0), ("got-3", 6.0)]
        assert pool.in_use == 0 and pool.queued == 0

    def test_try_request_does_not_jump_the_queue(self):
        sim, nic = nic_pools(tx_buffers=1)
        pool = nic.tx_buffers
        assert pool.try_request()

        def waiter():
            yield pool.request()

        Process(sim, waiter())
        sim.run()
        pool.release()  # handed to the queued waiter, not freed
        assert pool.in_use == 1
        assert not pool.try_request()

    def test_double_free_detected(self):
        _, nic = nic_pools(tx_buffers=1)
        with pytest.raises(RuntimeError, match="release of idle resource"):
            nic.tx_buffers.release()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            nic_pools(tx_buffers=0)
        with pytest.raises(ValueError):
            nic_pools(rx_buffers=0)

    @pytest.mark.parametrize("action", ["kill", "interrupt"])
    @pytest.mark.parametrize("state", ["queued", "granted"])
    def test_struck_claim_hands_the_buffer_to_the_next_live_waiter(
        self, state, action
    ):
        """The holder frees the one buffer at 10; a victim queued at 1
        is struck while queued (at 5) or in its grant instant (by the
        holder, right after the release).  The buffer goes to the live
        waiter queued at 2, at 10, and the pool drains."""
        sim, nic = nic_pools(tx_buffers=1)
        pool = nic.tx_buffers
        log = []

        def holder():
            yield pool.request()
            yield Timeout(10.0)
            pool.release()
            if state == "granted":
                getattr(victim, action)()

        def claimant(tag, arrive):
            yield Timeout(arrive)
            try:
                yield pool.request()
            except Interrupted:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, "got", sim.now))
            yield Timeout(2.0)
            pool.release()

        def striker():
            yield Timeout(5.0)
            getattr(victim, action)()

        Process(sim, holder())
        victim = Process(sim, claimant("victim", 1.0))
        Process(sim, claimant("live", 2.0))
        if state == "queued":
            Process(sim, striker())
        sim.run()
        struck_at = 5.0 if state == "queued" else 10.0
        expect = [("live", "got", 10.0)]
        if action == "interrupt":
            expect.append(("victim", "interrupted", struck_at))
        assert sorted(log) == sorted(expect)
        assert pool.in_use == 0 and pool.queued == 0
        assert sim.pending_events == 0
