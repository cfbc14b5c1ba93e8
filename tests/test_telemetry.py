"""The telemetry sampler: ring-buffered series, probes, exports
(repro.telemetry) and its engine / cluster wiring."""

import json

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.sim.engine import Simulator
from repro.telemetry import (
    TimeSeries,
    counter_events,
    percentile,
    telemetry_jsonl_lines,
    write_telemetry_jsonl,
)
from tests.conftest import restart_id_counters


def telemetry_sim(sample_us=1.0):
    return Simulator(telemetry_enabled=True, telemetry_sample_us=sample_us)


def keep_alive(sim, until, step=1.0):
    """Schedule no-op work every ``step`` us so the sampler stays armed."""
    t = step
    while t <= until:
        sim.schedule(t, lambda: None)
        t += step


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0

    def test_small_lists_clamp_to_bounds(self):
        assert percentile([7.0], 99.0) == 7.0
        assert percentile([3.0, 9.0], 0.0) == 3.0
        assert percentile([5.0, 1.0, 3.0], 99.0) == 5.0  # unsorted input

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestTimeSeries:
    def test_ring_evicts_oldest_and_counts_drops(self):
        s = TimeSeries("x", capacity=3)
        for i in range(5):
            s.append(float(i), float(i * 10))
        assert len(s) == 3
        assert s.dropped == 2
        assert s.samples() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_component_defaults_to_first_dotted_segment(self):
        assert TimeSeries("sw0.p3.util").component == "sw0"
        assert TimeSeries("x", component="nic1.cpu").component == "nic1.cpu"

    def test_stats_over_interval(self):
        s = TimeSeries("x")
        for t, v in ((1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 100.0)):
            s.append(t, v)
        stats = s.stats(1.0, 3.0)
        assert stats["count"] == 3
        assert stats["min"] == 2.0
        assert stats["max"] == 6.0
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["p99"] == 6.0

    def test_stats_empty_interval_is_none(self):
        s = TimeSeries("x")
        assert s.stats() is None
        s.append(5.0, 1.0)
        assert s.stats(0.0, 1.0) is None

    def test_last_at_or_before(self):
        s = TimeSeries("x")
        s.append(2.0, 10.0)
        s.append(6.0, 20.0)
        assert s.last_at_or_before(1.0) is None
        assert s.last_at_or_before(2.0) == 10.0
        assert s.last_at_or_before(5.9) == 10.0
        assert s.last_at_or_before(100.0) == 20.0

    def test_rollup_aligned_windows_skip_empty(self):
        s = TimeSeries("x")
        for t, v in ((0.5, 1.0), (1.5, 3.0), (7.5, 9.0)):
            s.append(t, v)
        windows = s.rollup(2.0)
        assert [(w["t0"], w["t1"]) for w in windows] == [(0.0, 2.0), (6.0, 8.0)]
        assert windows[0]["mean"] == pytest.approx(2.0)
        assert windows[1]["count"] == 1

    def test_rollup_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeSeries("x").rollup(0.0)

    def test_to_dict_is_json_able(self):
        s = TimeSeries("nic0.tx.util", kind="counter", unit="frac")
        s.append(1.0, 0.5)
        doc = json.loads(json.dumps(s.to_dict(rollup_us=10.0)))
        assert doc["name"] == "nic0.tx.util"
        assert doc["kind"] == "counter"
        assert doc["stats"]["mean"] == 0.5
        assert doc["rollups"][0]["t0"] == 0.0

    def test_invalid_construction_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=0)
        with pytest.raises(ValueError):
            TimeSeries("x", kind="rate")


class TestDisabledTelemetry:
    def test_register_returns_none_and_records_nothing(self):
        sim = Simulator(metrics_enabled=True)
        assert not sim.telemetry.enabled
        assert sim.probe("x", lambda: 1.0) is None
        sim.telemetry.sample()
        assert sim.telemetry.series == {}
        assert sim.telemetry.get("x") is None

    def test_start_schedules_no_events(self, sim):
        sim.telemetry.start()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.events_executed == 1
        assert sim.telemetry.samples_taken == 0

    def test_sample_is_a_no_op(self, sim):
        sim.telemetry.sample()
        assert sim.telemetry.samples_taken == 0


class TestSampler:
    def test_gauge_probe_sampled_every_period(self):
        sim = telemetry_sim(sample_us=1.0)
        state = {"v": 0.0}
        sim.probe("app.depth", lambda: state["v"])
        series = sim.telemetry.get("app.depth")
        sim.schedule(2.5, lambda: state.__setitem__("v", 7.0))
        keep_alive(sim, 5.0)
        sim.telemetry.start()
        sim.run()
        values = dict(series.samples())
        assert values[2.0] == 0.0
        assert values[3.0] == 7.0

    def test_counter_probe_first_tick_seeds_then_rates(self):
        sim = telemetry_sim(sample_us=2.0)
        sim.probe("app.bytes", lambda: sim.now * 3.0, kind="counter")
        series = sim.telemetry.get("app.bytes")
        keep_alive(sim, 6.0)
        sim.telemetry.start()
        sim.run()
        samples = series.samples()
        assert samples[0][0] == 2.0  # t=0 tick seeded the baseline only
        assert all(v == pytest.approx(3.0) for _, v in samples)

    def test_duplicate_name_raises(self):
        sim = telemetry_sim()
        sim.probe("app.x", lambda: 0.0)
        with pytest.raises(ValueError):
            sim.probe("app.x", lambda: 0.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            telemetry_sim().probe("x", lambda: 0.0, kind="rate")

    def test_sampler_never_keeps_run_from_draining(self):
        sim = telemetry_sim(sample_us=1.0)
        sim.probe("app.x", lambda: 1.0)
        sim.schedule(3.0, lambda: None)
        sim.telemetry.start()
        sim.run()  # would never return if the tick re-armed unconditionally
        assert sim.now == pytest.approx(3.0)

    def test_start_rearms_after_quiescence(self):
        sim = telemetry_sim(sample_us=1.0)
        sim.probe("app.x", lambda: 1.0)
        series = sim.telemetry.get("app.x")
        sim.schedule(2.0, lambda: None)
        sim.telemetry.start()
        sim.run()
        first_batch = len(series)
        sim.schedule(2.0, lambda: None)  # new work after going dormant
        sim.telemetry.start()
        sim.run()
        assert len(series) > first_batch

    def test_start_is_idempotent_while_armed(self):
        sim = telemetry_sim(sample_us=1.0)
        sim.probe("app.x", lambda: 1.0)
        keep_alive(sim, 3.0)
        sim.telemetry.start()
        sim.telemetry.start()
        sim.run()
        # One sample per period, not two interleaved tick chains.
        assert sim.telemetry.samples_taken <= 5

    def test_engine_probe_registered_when_enabled(self):
        sim = telemetry_sim()
        assert "engine.events_per_us" in sim.telemetry.series

    def test_nonpositive_sample_period_rejected(self):
        with pytest.raises(ValueError):
            Simulator(telemetry_enabled=True, telemetry_sample_us=0.0)

    def test_summary_shape(self):
        sim = telemetry_sim(sample_us=1.0)
        sim.probe("app.x", lambda: 2.0)
        keep_alive(sim, 3.0)
        sim.telemetry.start()
        sim.run()
        doc = json.loads(json.dumps(sim.telemetry.summary(rollup_us=2.0)))
        assert doc["enabled"] is True
        assert doc["samples_taken"] >= 3
        assert doc["series"]["app.x"]["stats"]["mean"] == 2.0
        assert doc["series"]["app.x"]["rollups"]


class TestClusterIntegration:
    @staticmethod
    def run_barrier_cluster(**overrides):
        config = ClusterConfig(num_nodes=4, **overrides)
        cluster = build_cluster(config)

        def program(ctx):
            yield from barrier(
                ctx.port, ctx.group, ctx.rank, algorithm="dissemination"
            )

        run_on_group(cluster, program, max_events=1_000_000)
        return cluster

    def test_components_covered_and_bounded(self):
        cluster = self.run_barrier_cluster(
            telemetry=True, telemetry_sample_us=2.0
        )
        tel = cluster.telemetry
        assert tel.samples_taken > 0
        components = tel.components()
        # Switch ports, NIC injection, NIC processor, DMA engines, engine.
        assert "sw0.p0" in components
        assert "nic0.tx" in components
        assert "nic0.cpu" in components
        assert "nic0.sdma" in components
        assert "engine" in components
        util = tel.get("nic0.cpu.busy_us")
        assert util is not None and len(util) > 0
        # Windowed busy-time deltas can land an epsilon above 1.
        assert all(0.0 <= v <= 1.0 + 1e-9 for _, v in util.samples())

    def test_trace_identical_with_and_without_telemetry(self, monkeypatch):
        """Enabling telemetry must not change what the simulation does:
        same records at the same times with the same payloads.  The
        packet/trace/event id allocators are process-global counters, so
        they are re-seeded before each run — otherwise the *second* run
        differs no matter what (ids just keep counting up)."""
        def events(telemetry):
            restart_id_counters(monkeypatch)
            cluster = self.run_barrier_cluster(
                trace=True, telemetry=telemetry, telemetry_sample_us=2.0
            )
            return [
                (
                    ev.time,
                    ev.category,
                    ev.label,
                    {k: repr(v) for k, v in ev.payload.items()},
                )
                for ev in cluster.tracer.events
            ]

        assert events(False) == events(True)

    def test_disabled_cluster_has_null_telemetry(self):
        cluster = self.run_barrier_cluster()
        assert not cluster.telemetry.enabled
        assert cluster.telemetry.series == {}


class TestExports:
    @staticmethod
    def two_series():
        a = TimeSeries("nic0.tx.util", kind="counter", unit="frac")
        a.append(1.0, 0.25)
        a.append(2.0, 0.75)
        b = TimeSeries("sw0.p1.queue")
        b.append(1.0, 3.0)
        return [a, b]

    def test_jsonl_lines_schema(self):
        lines = [json.loads(l) for l in telemetry_jsonl_lines(self.two_series())]
        assert len(lines) == 3
        assert lines[0] == {
            "name": "nic0.tx.util", "component": "nic0", "kind": "counter",
            "unit": "frac", "t": 1.0, "value": 0.25,
        }
        assert lines[2]["component"] == "sw0"

    def test_write_jsonl_file(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        write_telemetry_jsonl(path, self.two_series())
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 3
        assert not list(tmp_path.glob(".telemetry-*"))  # temp file cleaned up

    def test_counter_events_pid_mapping(self):
        events = counter_events(
            self.two_series(), {"nic0": 4}, default_pid=99
        )
        assert all(e["ph"] == "C" for e in events)
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], e)
        assert by_name["nic0.tx.util"]["pid"] == 4
        assert by_name["sw0.p1.queue"]["pid"] == 99
        assert events[0]["args"]["value"] == 0.25
