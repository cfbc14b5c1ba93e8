"""Unit tests for the simulation metrics registry (repro.sim.metrics)."""

import json

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    NULL_INSTRUMENT,
    BusyTime,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestGauge:
    def test_tracks_value_and_high_water(self):
        g = Gauge("g")
        g.set(3.0)
        g.set(7.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.high_water == 7.0


class TestHistogram:
    def test_unweighted_summary(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(3.0)
        assert h.min == 1.0
        assert h.max == 6.0

    def test_time_weighted_mean(self):
        # Depth 2 held for 9us, depth 10 for 1us: time-average 2.8, not 6.
        h = Histogram("depth")
        h.observe(2.0, weight=9.0)
        h.observe(10.0, weight=1.0)
        assert h.mean == pytest.approx(2.8)

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(1.0, weight=-0.5)


class TestBusyTime:
    def test_single_interval(self, sim):
        b = BusyTime(sim, "b")
        sim.schedule(2.0, b.begin)
        sim.schedule(5.0, b.end)
        sim.run()
        assert b.busy_us == pytest.approx(3.0)

    def test_overlapping_intervals_merge(self, sim):
        """Two overlapping holders [1,6] and [4,9] are 8us of busy time
        (time with >= 1 interval open), not 5 + 5 = 10."""
        b = BusyTime(sim, "b")
        sim.schedule(1.0, b.begin)
        sim.schedule(4.0, b.begin)
        sim.schedule(6.0, b.end)
        sim.schedule(9.0, b.end)
        sim.run()
        assert b.busy_us == pytest.approx(8.0)

    def test_back_to_back_intervals_sum(self, sim):
        b = BusyTime(sim, "b")
        for start, stop in ((1.0, 2.0), (5.0, 8.0)):
            sim.schedule(start, b.begin)
            sim.schedule(stop, b.end)
        sim.run()
        assert b.busy_us == pytest.approx(4.0)

    def test_open_interval_counts_up_to_now(self, sim):
        b = BusyTime(sim, "b")
        sim.schedule(2.0, b.begin)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert b.busy_us == pytest.approx(8.0)

    def test_unbalanced_end_raises(self, sim):
        with pytest.raises(RuntimeError):
            BusyTime(sim, "b").end()

    def test_utilization(self, sim):
        b = BusyTime(sim, "b")
        sim.schedule(0.0, b.begin)
        sim.schedule(5.0, b.end)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert b.utilization() == pytest.approx(0.5)


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self, sim):
        reg = MetricsRegistry(sim)
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.busy_time("b") is reg.busy_time("b")

    def test_snapshot_flattens_instruments(self, sim):
        reg = MetricsRegistry(sim)
        reg.counter("packets").inc(3)
        reg.gauge("depth").set(2.0)
        reg.histogram("wait").observe(4.0)
        snap = reg.snapshot()
        assert snap["packets"] == 3
        assert snap["depth"] == 2.0
        assert snap["depth.high_water"] == 2.0
        assert snap["wait.count"] == 1
        assert snap["wait.mean"] == 4.0
        assert "busy" not in snap

    def test_observed_callbacks_sampled_at_snapshot(self):
        sim = Simulator(metrics_enabled=True)
        state = {"n": 0}
        sim.probe("live", lambda: state["n"])
        sim.probe("total", lambda: state["n"] * 2, kind="counter")
        state["n"] = 42
        snap = sim.metrics.snapshot()
        # A gauge shows its level, a counter its total.
        assert snap["live"] == 42
        assert snap["total"] == 84

    def test_closed_simulator_reads_no_probe(self):
        sim = Simulator(metrics_enabled=True)
        sim.probe("live", lambda: 1)
        sim.close()
        assert "live" not in sim.metrics.snapshot()

    def test_rows_sorted_and_skip_zero(self, sim):
        reg = MetricsRegistry(sim)
        reg.counter("z").inc()
        reg.counter("a")
        rows = reg.rows()
        assert [name for name, _ in rows] == ["a", "z"]
        assert reg.rows(skip_zero=True) == [("z", 1)]

    def test_table_renders(self, sim):
        reg = MetricsRegistry(sim)
        reg.counter("resends").inc(2)
        table = reg.table(title="t")
        assert "resends" in table
        assert "2" in table


class TestDisabledRegistry:
    def test_factories_return_shared_null_instrument(self, sim):
        reg = MetricsRegistry(sim, enabled=False)
        assert reg.counter("c") is NULL_INSTRUMENT
        assert reg.gauge("g") is NULL_INSTRUMENT
        assert reg.histogram("h") is NULL_INSTRUMENT
        assert reg.busy_time("b") is NULL_INSTRUMENT

    def test_null_instrument_absorbs_all_mutators(self, sim):
        reg = MetricsRegistry(sim, enabled=False)
        c = reg.counter("c")
        c.inc()
        c.set(5.0)
        c.observe(1.0, weight=2.0)
        c.begin()
        c.end()
        assert c.value == 0
        assert c.busy_us == 0.0
        assert c.utilization() == 0.0

    def test_observed_registrations_dropped(self):
        # Telemetry alone reads the probe; the disabled snapshot does not.
        sim = Simulator(telemetry_enabled=True)
        sim.probe("x", lambda: 1)
        assert sim.metrics.snapshot() == {}

    def test_views_off_declare_no_probe_and_call_no_getter(self, monkeypatch):
        declared = []
        monkeypatch.setattr(
            Simulator, "probe", lambda self, *args, **kw: declared.append(args)
        )
        cluster = build_cluster(ClusterConfig(num_nodes=16))

        def program(ctx):
            yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")

        run_on_group(cluster, program, max_events=1_000_000)
        assert not cluster.sim.probing
        assert declared == []
        assert cluster.sim.probes == []


class TestNameUniqueness:
    """A metric name may only ever be claimed by one instrument kind:
    two instruments sharing a name would silently shadow each other in
    ``snapshot()``, so the registry refuses at creation time."""

    def test_same_kind_create_or_get_is_still_fine(self, sim):
        reg = MetricsRegistry(sim)
        assert reg.counter("x") is reg.counter("x")

    @pytest.mark.parametrize("first,second", [
        ("counter", "gauge"),
        ("gauge", "histogram"),
        ("histogram", "busy_time"),
        ("busy_time", "counter"),
    ])
    def test_cross_kind_reuse_raises(self, sim, first, second):
        reg = MetricsRegistry(sim)
        getattr(reg, first)("x")
        with pytest.raises(ValueError, match="already registered"):
            getattr(reg, second)("x")

    def test_observe_claims_the_name_too(self):
        sim = Simulator(metrics_enabled=True)
        sim.probe("live", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            sim.metrics.counter("live")
        with pytest.raises(ValueError, match="already registered"):
            sim.probe("live", lambda: 2)

    def test_instrument_name_blocks_observe(self):
        sim = Simulator(metrics_enabled=True)
        sim.metrics.gauge("depth")
        with pytest.raises(ValueError, match="already registered"):
            sim.probe("depth", lambda: 1)

    @pytest.mark.parametrize("views", [
        {"metrics_enabled": True},
        {"telemetry_enabled": True},
        {"metrics_enabled": True, "telemetry_enabled": True},
    ])
    def test_probe_name_is_unique_whichever_view_is_on(self, views):
        sim = Simulator(**views)
        sim.probe("app.x", lambda: 0)
        with pytest.raises(ValueError, match="already registered"):
            sim.probe("app.x", lambda: 0, kind="counter")
        # The engine's own probe holds its name too.
        with pytest.raises(ValueError, match="already registered"):
            sim.probe("engine.events_per_us", lambda: 0)

    def test_disabled_registry_never_raises(self, sim):
        reg = sim.metrics
        assert not reg.enabled
        reg.counter("x")
        reg.gauge("x")
        sim.probe("x", lambda: 1)
        assert reg.snapshot() == {}


class TestEngineIntegration:
    def test_cancelled_pop_ratio(self, sim):
        handles = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        for h in handles[:3]:
            sim.cancel(h)
        sim.run()
        assert sim.events_executed == 1
        assert sim.cancelled_pops == 3

    def test_profile_stats_collect_per_owner(self):
        sim = Simulator(profile=True)

        class Machine:
            name = "sdma"

            def __init__(self, sim):
                self.sim = sim
                self.fired = 0

            def on_tick(self):
                self.fired += 1

        m = Machine(sim)
        for _ in range(3):
            sim.schedule(1.0, m.on_tick)
        sim.schedule(2.0, lambda: None)
        sim.run()
        stats = sim.profile_stats()
        events, wall = stats["Machine:sdma"]
        assert events == 3
        assert wall >= 0.0
        assert sim.heap_high_water >= 3
        table = sim.profile_table()
        assert "Machine:sdma" in table

    def test_profiling_off_collects_nothing(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not sim.profiling
        assert sim.profile_stats() == {}


class TestChargeMetricsPinned:
    def test_dma_pci_and_cpu_entries_match_the_recorded_snapshot(self):
        """CPU and PCI charges leave the same busy times, utilizations,
        transfer counts and bus-wait histograms as recorded: 16 nodes,
        NIC-based and host-based PE barriers."""
        from tests.golden_engine import CHARGE_METRICS_PATH, charge_metrics

        recorded = json.loads(CHARGE_METRICS_PATH.read_text())
        live = charge_metrics()
        assert sum(map(len, recorded.values())) == 576
        assert live == recorded
