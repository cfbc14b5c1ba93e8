"""Tests for tracing and seeded randomness."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.sim.tracing import TraceEvent, Tracer


class TestTracer:
    def test_disabled_records_nothing(self, sim):
        t = Tracer(sim, enabled=False)
        t.record("cat", "label", x=1)
        assert t.events == []

    def test_enabled_records_with_timestamp(self, sim):
        t = Tracer(sim, enabled=True)
        sim.schedule(5.0, lambda: t.record("cat", "label", x=1))
        sim.run()
        assert len(t.events) == 1
        assert t.events[0].time == 5.0
        assert t.events[0].payload == {"x": 1}

    def test_category_filter(self, sim):
        t = Tracer(sim, enabled=True, categories=["keep"])
        t.record("keep", "a")
        t.record("drop", "b")
        assert [e.category for e in t.events] == ["keep"]

    def test_filter_query(self, sim):
        t = Tracer(sim, enabled=True)
        t.record("c1", "a")
        t.record("c1", "b")
        t.record("c2", "a")
        assert len(t.filter(category="c1")) == 2
        assert len(t.filter(label="a")) == 2
        assert len(t.filter(category="c2", label="a")) == 1

    def test_spans_pairing_by_key(self, sim):
        t = Tracer(sim, enabled=True)
        sim.schedule(1.0, lambda: t.record("x", "start", key=1))
        sim.schedule(2.0, lambda: t.record("x", "start", key=2))
        sim.schedule(4.0, lambda: t.record("x", "end", key=1))
        sim.schedule(7.0, lambda: t.record("x", "end", key=2))
        sim.run()
        spans = t.spans("x", "start", "end")
        assert [(s[0].payload["key"], s[2]) for s in spans] == [(1, 3.0), (2, 5.0)]

    def test_sink(self, sim):
        t = Tracer(sim, enabled=True)
        seen = []
        t.sink = seen.append
        t.record("c", "l")
        assert len(seen) == 1

    def test_dump_and_clear(self, sim):
        t = Tracer(sim, enabled=True)
        t.record("c", "l", v=3)
        assert "v=3" in t.dump()
        t.clear()
        assert t.events == []


class TestSimRng:
    def test_same_seed_same_stream(self):
        a = SimRng(42)
        b = SimRng(42)
        assert [a.uniform("s", 0, 1) for _ in range(5)] == [
            b.uniform("s", 0, 1) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        assert SimRng(1).uniform("s", 0, 1) != SimRng(2).uniform("s", 0, 1)

    def test_streams_are_independent_of_creation_order(self):
        a = SimRng(7)
        _ = a.uniform("first", 0, 1)
        va = a.uniform("second", 0, 1)
        b = SimRng(7)
        vb = b.uniform("second", 0, 1)  # no draw from "first"
        assert va == vb

    def test_named_streams_differ(self):
        r = SimRng(0)
        assert r.uniform("a", 0, 1) != r.uniform("b", 0, 1)

    def test_integers_bounds(self):
        r = SimRng(0)
        vals = [r.integers("i", 0, 10) for _ in range(100)]
        assert all(0 <= v < 10 for v in vals)
