"""End of life of a simulation: ``Process.close`` and ``Cluster.close``.

A finished cluster must be freed by reference counting alone: after each
measurement path below, a ``gc.DEBUG_SAVEALL`` collection finds no
object of a ``repro`` type.  ``close()`` itself runs no event, and every
value a benchmark reads after a measurement keeps the value it had just
before the close.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.analysis import figure5
from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.analysis.critical_path import traced_barrier_run
from repro.analysis.experiments import measure_barrier
from repro.analysis.hotspots import run_telemetry_barrier
from repro.analysis.nbc_overlap import measure_nbc_overlap
from repro.analysis.utilization import measure_utilization
from repro.campaign.executor import run_campaign
from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_on_group, spawn_group
from repro.core.barrier import barrier
from repro.faults.plan import FaultPlan, LossRule
from repro.faults.soak import run_soak_combo
from repro.gm.constants import BarrierReliability
from repro.sim.primitives import Resource, Store, Timeout
from repro.sim.process import Process


def lossy_config(num_nodes: int = 16, **overrides):
    """NIC-PE on the separate reliable barrier stream under 2% loss."""
    system = LANAI_4_3_SYSTEM
    return system.cluster_config(
        num_nodes,
        nic_params=system.nic_params.with_(
            barrier_reliability=BarrierReliability.SEPARATE
        ),
        fault_plan=FaultPlan(seed=3, loss=[LossRule(rate=0.02)]),
        **overrides,
    )


@contextmanager
def no_cyclic_repro_garbage():
    """Fail if the block leaves any ``repro`` object to the cycle
    collector.  Under ``DEBUG_SAVEALL`` every object a collection finds
    unreachable lands in ``gc.garbage`` instead of being freed."""
    gc.collect()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield
        gc.collect()
        leaked = sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage[start:]
            if type(obj).__module__.startswith("repro.")
        })
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert leaked == []


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("nic_based", [True, False], ids=["nic-pe", "host-pe"])
    def test_measure_barrier_16(self, nic_based):
        with no_cyclic_repro_garbage():
            measure_barrier(
                LANAI_4_3_SYSTEM.cluster_config(16), nic_based=nic_based
            )

    def test_lossy16(self):
        with no_cyclic_repro_garbage():
            measure_barrier(
                lossy_config(), nic_based=True, repetitions=10, warmup=0
            )

    def test_nbc_overlap_8(self):
        with no_cyclic_repro_garbage():
            measure_nbc_overlap(
                LANAI_4_3_SYSTEM.cluster_config(8), iterations=4,
                skew_max_us=50.0,
            )

    def test_measure_utilization_4(self):
        with no_cyclic_repro_garbage():
            measure_utilization("nic", num_nodes=4, iterations=3)

    def test_traced_barrier_run_8(self):
        with no_cyclic_repro_garbage():
            traced_barrier_run(8, algorithm="pe")

    def test_inline_fig5_job(self):
        spec = figure5.figure5_spec(LANAI_4_3_SYSTEM, sizes=(16,))
        job = next(j for j in spec.compile() if j.params["nic_based"])
        with no_cyclic_repro_garbage():
            result = run_campaign(job)
        assert result.simulated == 1 and result.failed == 0

    def test_soak_combo(self):
        with no_cyclic_repro_garbage():
            run = run_soak_combo(
                family="loss", seed=3, label="nic-pe", algorithm="pe",
                num_nodes=4, reliability="SEPARATE", flight_dump_dir=None,
            )
            # The closed cluster still answers its readers.
            assert run.cluster.sim.events_executed == run.row.events
            del run

    def test_telemetry_barrier(self):
        with no_cyclic_repro_garbage():
            cluster, report = run_telemetry_barrier(4, sample_us=2.0)
            assert report.rounds and cluster.telemetry.series
            assert cluster.tracer.events
            del cluster, report

    def test_failed_run_is_closed_too(self):
        with no_cyclic_repro_garbage():
            with pytest.raises(RuntimeError, match="max_events"):
                measure_barrier(
                    LANAI_4_3_SYSTEM.cluster_config(8), nic_based=True,
                    max_events=500,
                )


class TestProcessClose:
    """``close()`` in each wait state: the process never runs again, no
    event executes, and its queued claim leaves the Store/Resource."""

    def start(self, sim, *waitables):
        """A process that yields ``waitables`` in turn, suspended at the
        last one after a run to t=1."""
        after = []

        def body():
            for waitable in waitables:
                yield waitable
            after.append(sim.now)

        proc = Process(sim, body())
        sim.run(until=1.0)
        return proc, after

    def close_and_drain(self, sim, proc, after):
        executed = sim.events_executed
        proc.close()
        assert sim.events_executed == executed
        assert not proc.alive
        sim.run()
        assert after == []
        return executed

    def test_timeout(self, sim):
        proc, after = self.start(sim, Timeout(10.0))
        executed = self.close_and_drain(sim, proc, after)
        assert sim.events_executed == executed
        assert sim.pending_events == 0

    def test_store_get(self, sim):
        store = Store(sim)
        proc, after = self.start(sim, store.get())
        executed = self.close_and_drain(sim, proc, after)
        assert store._getters == type(store._getters)()
        store.put("item")
        sim.run()
        assert store.items == ("item",)
        assert sim.events_executed == executed

    def test_queued_hold(self, sim):
        cpu = Resource(sim, 1)

        def hold():
            yield cpu.hold(5.0)

        holder = Process(sim, hold())
        proc, after = self.start(sim, cpu.hold(3.0))
        assert cpu.queued == 1
        executed = sim.events_executed
        proc.close()
        assert sim.events_executed == executed
        assert cpu.queued == 0
        sim.run()
        assert after == [] and not holder.alive
        assert cpu.in_use == 0
        assert cpu.busy_us == pytest.approx(5.0)

    def test_holding_hold(self, sim):
        cpu = Resource(sim, 1)
        proc, after = self.start(sim, cpu.hold(10.0))
        assert cpu.in_use == 1
        executed = self.close_and_drain(sim, proc, after)
        assert sim.events_executed == executed
        assert cpu.in_use == 0
        assert cpu.busy_us == pytest.approx(1.0)

    def test_waiter_of_closed_process_is_not_resumed(self, sim):
        target, _ = self.start(sim, Timeout(10.0))
        woken = []

        def waiter():
            woken.append((yield target))

        Process(sim, waiter())
        sim.run(until=2.0)
        target.close()
        sim.run()
        assert woken == []


def readings(cluster) -> dict:
    """Every value read from a cluster after its measurement by the
    benchmark's per-cluster totals and its lossy workload."""
    sim, network = cluster.sim, cluster.network
    out = {
        "events": sim.events_executed,
        "cancelled_pops": sim.cancelled_pops,
        "timers_reclaimed": sim.timers_reclaimed,
        "profile": sim.profile_stats(),
        "drops": cluster.faults.drops,
        "now": sim.now,
    }
    for node_id, node in enumerate(cluster.nodes):
        nic = node.nic
        out[f"nic{node_id}"] = (
            nic.cpu_resource.busy_us,
            nic.sdma_engine.transfers,
            nic.rdma_engine.transfers,
            network.tx_channel(node_id).packets_sent,
            network.rx_channel(node_id).packets_sent,
            sorted(
                (peer, conn.packets_retransmitted, conn.packets_acked,
                 conn.duplicates_dropped, conn.future_dropped)
                for peer, conn in nic.connections.items()
            ),
        )
    return out


class TestClusterClose:
    @staticmethod
    def program(ctx):
        for _ in range(10):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

    def run_lossy(self, **overrides):
        cluster = build_cluster(lossy_config(8, profile=True, **overrides))
        run_on_group(cluster, self.program, max_events=2_000_000)
        return cluster

    def test_readings_survive_close(self):
        cluster = self.run_lossy()
        before = readings(cluster)
        assert before["drops"] > 0
        cluster.close()
        assert readings(cluster) == before

    def test_close_runs_no_event_and_records_no_row(self):
        cluster = self.run_lossy(trace=True, telemetry=True)
        tracer = cluster.tracer
        events, rows = cluster.sim.events_executed, len(tracer.events)
        ring = tracer.flight.snapshot()
        series = cluster.telemetry.summary()
        cluster.close()
        assert cluster.sim.events_executed == events
        assert len(tracer.events) == rows
        assert tracer.flight.snapshot() == ring
        assert cluster.telemetry.summary() == series
        assert cluster.sim.pending_events == 0
        for node in cluster.nodes:
            assert not any(p.alive for p in node.programs + list(node.nic.machines))

    def test_closed_mid_run_frees_everything(self):
        """Closed with every machine and program suspended somewhere."""
        with no_cyclic_repro_garbage():
            cluster = build_cluster(
                lossy_config(8, metrics=True, telemetry=True)
            )
            procs = spawn_group(cluster, self.program)
            cluster.run(until=60.0)
            assert all(p.alive for p in procs)
            cluster.close()
            del cluster, procs
