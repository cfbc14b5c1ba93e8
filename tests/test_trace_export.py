"""Tracer span matching and export formats (JSONL / Chrome trace_event)."""

import json

import pytest

from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer


@pytest.fixture
def tracer(sim):
    return Tracer(sim, enabled=True)


def at(sim, t, fn, *args, **kwargs):
    sim.schedule(t, lambda: fn(*args, **kwargs))


class TestSpanKeyMatching:
    def test_keyed_spans_match_by_key_not_order(self, sim, tracer):
        """Two overlapping keyed spans: ends pair with their own starts."""
        at(sim, 1.0, tracer.record, "nic0", "op.begin", key="a")
        at(sim, 2.0, tracer.record, "nic0", "op.begin", key="b")
        at(sim, 5.0, tracer.record, "nic0", "op.end", key="b")  # b ends first
        at(sim, 9.0, tracer.record, "nic0", "op.end", key="a")
        sim.run()
        spans = tracer.spans("nic0", "op.begin", "op.end")
        by_key = {s.payload["key"]: d for s, _, d in spans}
        assert by_key == {"b": pytest.approx(3.0), "a": pytest.approx(8.0)}

    def test_unkeyed_records_interleaved_with_keyed(self, sim, tracer):
        """Records without payload['key'] form their own FIFO stream and
        never steal a keyed record's partner."""
        at(sim, 1.0, tracer.record, "nic0", "op.begin", key="k")
        at(sim, 1.0, tracer.record, "nic0", "op.begin")  # unkeyed
        at(sim, 4.0, tracer.record, "nic0", "op.end")  # unkeyed
        at(sim, 7.0, tracer.record, "nic0", "op.end", key="k")
        sim.run()
        spans = tracer.spans("nic0", "op.begin", "op.end")
        assert len(spans) == 2
        durations = {
            start.payload.get("key"): dur for start, _, dur in spans
        }
        assert durations[None] == pytest.approx(3.0)
        assert durations["k"] == pytest.approx(6.0)

    def test_unmatched_ends_are_dropped(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "op.end")  # no start ever
        at(sim, 2.0, tracer.record, "nic0", "op.begin")
        at(sim, 3.0, tracer.record, "nic0", "op.end")
        at(sim, 4.0, tracer.record, "nic0", "op.end")  # extra end
        sim.run()
        spans = tracer.spans("nic0", "op.begin", "op.end")
        assert len(spans) == 1
        assert spans[0][2] == pytest.approx(1.0)

    def test_unmatched_starts_are_dropped(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "op.begin")
        sim.run()
        assert tracer.spans("nic0", "op.begin", "op.end") == []

    def test_categories_do_not_mix(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "op.begin")
        at(sim, 2.0, tracer.record, "nic1", "op.end")
        sim.run()
        assert tracer.spans("nic0", "op.begin", "op.end") == []


class TestJsonlExport:
    def test_round_trips_through_json(self, sim, tracer):
        at(sim, 1.5, tracer.record, "nic0", "barrier.send", dst=(1, 2), n=3)
        at(sim, 2.0, tracer.record, "host1", "poll")
        sim.run()
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["time"] == 1.5
        assert first["category"] == "nic0"
        assert first["label"] == "barrier.send"
        assert first["payload"]["n"] == 3

    def test_write_jsonl(self, sim, tracer, tmp_path):
        at(sim, 1.0, tracer.record, "nic0", "x")
        sim.run()
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text.splitlines()[0])["label"] == "x"

    def test_empty_tracer_writes_empty_file(self, sim, tracer, tmp_path):
        path = tracer.write_jsonl(tmp_path / "empty.jsonl")
        assert path.read_text() == ""


class TestChromeTraceExport:
    def test_structure_and_metadata(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "barrier.send")
        at(sim, 2.0, tracer.record, "nic1", "barrier.recorded")
        sim.run()
        doc = tracer.to_chrome_trace()
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"nic0", "nic1"}
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 2
        assert instants[0]["ts"] == 1.0
        # Distinct categories land on distinct pids.
        assert len({m["pid"] for m in meta}) == 2

    def test_begin_end_pairs_become_duration_events(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "barrier.pe.begin")
        at(sim, 6.0, tracer.record, "nic0", "barrier.pe.end")
        sim.run()
        doc = tracer.to_chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1
        assert xs[0]["name"] == "barrier.pe"
        assert xs[0]["ts"] == 1.0
        assert xs[0]["dur"] == pytest.approx(5.0)

    def test_whole_document_is_json_serializable(self, sim, tracer, tmp_path):
        at(sim, 1.0, tracer.record, "nic0", "send", dst=(1, 2))
        sim.run()
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)


class TestChromeCounterTracks:
    """Telemetry series merged into the Chrome trace as counter ("C")
    events, placed on the matching process row when one exists."""

    @staticmethod
    def series(name, points, component=None):
        from repro.telemetry import TimeSeries

        s = TimeSeries(name, component=component or "")
        for t, v in points:
            s.append(t, v)
        return s

    def test_counters_land_on_the_matching_category_row(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "barrier.send")
        sim.run()
        doc = tracer.to_chrome_trace(counter_series=[
            self.series("nic0.cpu.util", [(1.0, 0.5)], component="nic0.cpu"),
        ])
        events = doc["traceEvents"]
        nic0_pid = next(
            e["pid"] for e in events
            if e["ph"] == "M" and e["args"]["name"] == "nic0"
        )
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        c = counters[0]
        # "nic0.cpu" has no category of its own; its first dotted
        # segment does, so the track draws under the nic0 process.
        assert c["pid"] == nic0_pid
        assert c["name"] == "nic0.cpu.util"
        assert c["ts"] == 1.0
        assert c["args"]["value"] == 0.5

    def test_homeless_series_get_a_telemetry_process(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "barrier.send")
        sim.run()
        doc = tracer.to_chrome_trace(counter_series=[
            self.series("sw0.p0.queue", [(2.0, 3.0)], component="sw0.p0"),
        ])
        events = doc["traceEvents"]
        meta = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
        assert "telemetry" in meta
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["pid"] == meta["telemetry"]
        assert counter["pid"] not in (meta["nic0"],)

    def test_spans_and_counters_coexist(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "barrier.pe.begin")
        at(sim, 6.0, tracer.record, "nic0", "barrier.pe.end")
        sim.run()
        doc = tracer.to_chrome_trace(counter_series=[
            self.series("nic0.tx.util", [(2.0, 0.4), (4.0, 0.9)],
                        component="nic0.tx"),
        ])
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(xs) == 1 and xs[0]["dur"] == pytest.approx(5.0)
        assert [c["args"]["value"] for c in counters] == [0.4, 0.9]
        json.dumps(doc)  # whole document still serializes

    def test_no_counter_series_emits_no_counter_events(self, sim, tracer):
        at(sim, 1.0, tracer.record, "nic0", "x")
        sim.run()
        doc = tracer.to_chrome_trace()
        assert [e for e in doc["traceEvents"] if e["ph"] == "C"] == []


class TestTelemetryPlusTracingRun:
    def test_sampled_traced_barrier_exports_both(self, tmp_path):
        """Telemetry and tracing both on: the Chrome trace carries the
        barrier spans AND the counter tracks, and span pairing is
        unperturbed by the sampler's tick events."""
        from repro.analysis.hotspots import run_telemetry_barrier

        cluster, report = run_telemetry_barrier(4, sample_us=2.0)
        trace_path = tmp_path / "trace.json"
        cluster.tracer.write_chrome_trace(
            trace_path,
            counter_series=list(cluster.telemetry.series.values()),
        )
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        barrier_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "barrier"
        ]
        assert len(barrier_spans) == 4  # one per rank, still paired
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} >= {
            "nic0.cpu.busy_us", "engine.events_per_us",
        }
        # Every counter sits on a declared process row.
        meta_pids = {e["pid"] for e in events if e["ph"] == "M"}
        assert {e["pid"] for e in counters} <= meta_pids
        assert report.rounds  # and the hotspot join still works


class TestInstrumentedBarrierRun:
    def test_16_node_dissemination_run_produces_metrics_and_trace(
        self, tmp_path
    ):
        """The acceptance scenario: 16 nodes, dissemination barrier,
        metrics live -> non-empty per-component table (NIC busy time,
        link utilization, resend counters) and a loadable Chrome trace."""
        from repro.analysis.report import metrics_table, run_observed_barrier

        trace_path = tmp_path / "barrier_trace.json"
        cluster = run_observed_barrier(
            num_nodes=16, algorithm="dissemination", repetitions=2,
            trace_path=trace_path,
        )

        snap = cluster.metrics.snapshot()
        assert snap["nic0.cpu.busy_us"] > 0
        assert snap["nic0.barrier.initiated"] == 2
        assert any(
            name.startswith("link.") and name.endswith(".utilization")
            and value > 0
            for name, value in snap.items()
        )
        assert "nic0.barrier.resends" in snap  # zero on a clean run
        assert snap["nic0.barrier.latency_us.count"] == 2

        table = metrics_table(cluster.metrics)
        assert "nic0.cpu.busy_us" in table
        assert "utilization" in table

        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert len(events) > 16
        assert {e["ph"] for e in events} >= {"M", "i", "X"}
        barrier_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "barrier"
        ]
        assert len(barrier_spans) == 16 * 2
