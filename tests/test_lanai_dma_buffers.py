"""Tests for the LANai cost model, DMA engines and SRAM buffer pools."""

import pytest

from repro.nic.buffers import BufferPool
from repro.nic.dma import DmaEngine
from repro.nic.lanai import (
    LANAI_4_3,
    LANAI_7_2,
    LANAI_9_2,
    OPERATIONS,
    LanaiModel,
)
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


class TestBufferPool:
    def test_try_acquire_until_empty(self, sim):
        pool = BufferPool(sim, count=2, buffer_bytes=4096)
        assert pool.try_acquire()
        assert pool.try_acquire()
        assert not pool.try_acquire()
        assert pool.acquire_failures == 1
        pool.release()
        assert pool.try_acquire()

    def test_blocking_acquire(self, sim):
        pool = BufferPool(sim, count=1, buffer_bytes=64)
        order = []

        def holder():
            yield pool.acquire()
            order.append(("got-1", sim.now))
            yield Timeout(5.0)
            pool.release()

        def waiter():
            yield pool.acquire()
            order.append(("got-2", sim.now))
            pool.release()

        Process(sim, holder())
        Process(sim, waiter())
        sim.run()
        assert order == [("got-1", 0.0), ("got-2", 5.0)]

    def test_double_free_detected(self, sim):
        pool = BufferPool(sim, count=1, buffer_bytes=64)
        with pytest.raises(RuntimeError, match="double free"):
            pool.release()

    def test_high_watermark(self, sim):
        pool = BufferPool(sim, count=4, buffer_bytes=64)
        pool.try_acquire()
        pool.try_acquire()
        pool.release()
        assert pool.high_watermark == 2
        assert pool.in_use == 1

    def test_fits(self, sim):
        pool = BufferPool(sim, count=1, buffer_bytes=4096)
        assert pool.fits(4096)
        assert not pool.fits(4097)

    def test_invalid_params(self, sim):
        with pytest.raises(ValueError):
            BufferPool(sim, count=0, buffer_bytes=64)
        with pytest.raises(ValueError):
            BufferPool(sim, count=1, buffer_bytes=0)
