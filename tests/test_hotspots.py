"""Congestion hotspot attribution (repro.analysis.hotspots): round-span
recovery, component scoring, and the stalled-port acceptance scenario."""

import json
from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.analysis.hotspots import (
    attribute_hotspots,
    barrier_round_spans,
    run_telemetry_barrier,
)
from repro.cluster.builder import ClusterConfig
from repro.faults.plan import FaultPlan, PortStall
from repro.sim.engine import Simulator


@dataclass
class Rec:
    """Minimal stand-in for a tracer record."""

    time: float
    category: str
    label: str
    payload: Dict = field(default_factory=dict)


def send(t, cat, seq=0):
    return Rec(t, cat, "barrier.send", {"seq": seq})


class TestBarrierRoundSpans:
    def test_rounds_open_at_first_send_and_name_the_straggler(self):
        events = [
            send(1.0, "nic0"), send(3.0, "nic1"),   # round 0
            send(5.0, "nic1"), send(8.0, "nic0"),   # round 1
            Rec(12.0, "nic0", "barrier.complete", {"seq": 0}),
            Rec(12.5, "nic1", "barrier.complete", {"seq": 0}),
        ]
        spans = barrier_round_spans(events)
        assert len(spans) == 2
        r0, r1 = spans
        assert (r0.t0, r0.t1) == (1.0, 5.0)
        assert (r0.leader, r0.straggler) == ("nic0", "nic1")
        assert (r1.t0, r1.t1) == (5.0, 12.5)  # last round runs to complete
        assert (r1.leader, r1.straggler) == ("nic1", "nic0")
        assert r1.duration_us == pytest.approx(7.5)

    def test_default_seq_is_the_last_one_seen(self):
        events = [
            send(1.0, "nic0", seq=0),
            Rec(2.0, "nic0", "barrier.complete", {"seq": 0}),
            send(10.0, "nic0", seq=1),
            Rec(14.0, "nic0", "barrier.complete", {"seq": 1}),
        ]
        spans = barrier_round_spans(events)
        assert len(spans) == 1
        assert spans[0].t0 == 10.0
        explicit = barrier_round_spans(events, seq=0)
        assert explicit[0].t0 == 1.0

    def test_no_sends_yields_no_spans(self):
        assert barrier_round_spans([]) == []
        assert barrier_round_spans(
            [Rec(1.0, "nic0", "barrier.complete", {"seq": 0})]
        ) == []

    def test_spans_stay_monotone_with_ragged_send_counts(self):
        # nic1 sends a 2nd time before nic0's 1st closes: t0 clamps.
        events = [
            send(1.0, "nic1"), send(2.0, "nic1"),
            send(6.0, "nic0"),
            Rec(9.0, "nic0", "barrier.complete", {"seq": 0}),
        ]
        spans = barrier_round_spans(events)
        for prev, cur in zip(spans, spans[1:]):
            assert cur.t0 >= prev.t1
        assert all(s.t1 >= s.t0 for s in spans)


class TestAttribution:
    @staticmethod
    def telemetry_with(series_specs):
        """A real Telemetry carrying hand-fed series."""
        sim = Simulator(telemetry_enabled=True, telemetry_sample_us=1.0)
        for name, points in series_specs.items():
            component = name.rsplit(".", 1)[0]  # "sw0.p2.busy_us" -> "sw0.p2"
            sim.probe(name, lambda: 0.0, component=component)
            series = sim.telemetry.get(name)
            for t, v in points:
                series.append(t, v)
        return sim.telemetry

    def test_paused_port_beats_busy_link(self):
        tel = self.telemetry_with({
            "sw0.p2.paused": [(1.0, 1.0), (2.0, 1.0)],
            "sw0.p2.busy_us": [(1.0, 0.2), (2.0, 0.2)],
            "nic0.tx.busy_us": [(1.0, 0.8), (2.0, 0.8)],
        })
        spans = barrier_round_spans([
            send(0.5, "nic0"),
            Rec(3.0, "nic0", "barrier.complete", {"seq": 0}),
        ])
        report = attribute_hotspots(tel, spans)
        assert report.top_component == "sw0.p2"
        assert report.rounds[0].score == pytest.approx(1.0)
        assert report.rounds[0].evidence["paused"] == pytest.approx(1.0)

    def test_queue_depth_breaks_utilization_ties(self):
        tel = self.telemetry_with({
            "sw0.p0.busy_us": [(1.0, 1.0)],
            "sw0.p0.queue": [(1.0, 0.0)],
            "sw0.p1.busy_us": [(1.0, 1.0)],
            "sw0.p1.queue": [(1.0, 6.0)],
        })
        spans = barrier_round_spans([
            send(0.5, "nic0"),
            Rec(2.0, "nic0", "barrier.complete", {"seq": 0}),
        ])
        report = attribute_hotspots(tel, spans)
        assert report.top_component == "sw0.p1"

    def test_short_round_falls_back_to_last_sample_before_close(self):
        # No sample lands inside [4.0, 4.2]; the 3.0 sample carries.
        tel = self.telemetry_with({"nic2.cpu.busy_us": [(3.0, 0.9)]})
        spans = barrier_round_spans([
            send(4.0, "nic0"), send(4.1, "nic0"),
            Rec(4.2, "nic0", "barrier.complete", {"seq": 0}),
        ])
        report = attribute_hotspots(tel, spans)
        assert report.rounds[0].component == "nic2.cpu"
        assert report.rounds[0].score == pytest.approx(0.9)

    def test_report_renders_and_summarizes(self):
        tel = self.telemetry_with({"nic0.tx.busy_us": [(1.0, 0.5)]})
        spans = barrier_round_spans([
            send(0.5, "nic0"),
            Rec(2.0, "nic0", "barrier.complete", {"seq": 0}),
        ])
        report = attribute_hotspots(tel, spans, barrier_seq=7)
        table = report.render_table()
        assert "hotspot" in table and "nic0.tx" in table
        doc = json.loads(json.dumps(report.summary()))
        assert doc["barrier_seq"] == 7
        assert doc["top_component"] == "nic0.tx"
        assert doc["rounds"][0]["evidence"]["util"] == 0.5


class TestStalledPortAcceptance:
    def test_stalled_switch_port_is_the_top_hotspot(self):
        """The acceptance scenario: stall switch 0 port 0 (node 0's
        down-link) across a 4-node dissemination barrier and the
        analyzer must name that port — not a NIC, not another port —
        as the top contended component."""
        plan = FaultPlan(
            seed=3,
            stalls=[PortStall(switch=0, port=0, at_us=5.0, duration_us=120.0)],
        )
        cluster, report = run_telemetry_barrier(
            4,
            algorithm="dissemination",
            sample_us=2.0,
            config=ClusterConfig(num_nodes=4, fault_plan=plan),
        )
        assert report.rounds, "no barrier rounds recovered from the trace"
        assert report.top_component == "sw0.p0"
        # The pause signal is what convicts it: score saturates at 1.
        top_round = max(report.rounds, key=lambda rh: rh.score)
        assert top_round.component == "sw0.p0"
        assert top_round.evidence.get("paused", 0.0) > 0.0

    def test_clean_run_does_not_blame_the_switch(self):
        """Sanity inverse: without the stall the bottleneck is NIC-side
        processing, so the stalled-port conviction above is not a
        scoring artifact that fires on any run."""
        _, report = run_telemetry_barrier(4, sample_us=2.0)
        assert report.rounds
        assert report.top_component != "sw0.p0"
