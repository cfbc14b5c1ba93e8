"""White-box tests for the dispatch heap and the timer wheel.

``test_sim_engine.py`` pins the *semantics* (ordering, cancellation,
until/max_events); these tests pin the *mechanism*: every event pushed
onto the one heap, the near-timer threshold, wheel flush at a bucket's
lower bound (equal-time timers included), parked-timer reclamation, and
adaptive compaction.  They reach into ``Simulator`` internals
deliberately -- if the layout changes, update them alongside the engine.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import WHEEL_GRANULE, PRIORITY_HIGH, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTierRouting:
    def test_every_event_goes_onto_the_heap(self, sim):
        for delay in (1.0, WHEEL_GRANULE * 3.5, WHEEL_GRANULE * 1000):
            sim.schedule(delay, lambda: None)
        sim.schedule_at(WHEEL_GRANULE * 2, lambda: None)
        assert len(sim._heap) == 4
        assert not sim._wheel

    def test_far_timer_parks_in_wheel(self, sim):
        sim.schedule_timer(WHEEL_GRANULE * 2, lambda: None)
        assert not sim._heap
        assert len(sim._wheel) == 1
        assert sim._wheel_lo == WHEEL_GRANULE * 2

    def test_near_timer_skips_wheel(self, sim):
        sim.schedule_timer(WHEEL_GRANULE / 2, lambda: None)
        assert len(sim._heap) == 1
        assert not sim._wheel

    def test_near_timer_threshold_is_the_clocks_granule(self, sim):
        """A timer parks iff it is due in a later granule than the
        clock's, however short its delay."""
        parked = {}

        def arm(label, delay):
            before = len(sim._heap)
            sim.schedule_timer(delay, lambda: None)
            parked[label] = len(sim._heap) == before

        sim.schedule(0.0, arm, "last instant of granule 0", WHEEL_GRANULE - 1e-6)
        sim.schedule(0.0, arm, "first instant of granule 1", WHEEL_GRANULE)
        sim.schedule(WHEEL_GRANULE - 10.0, arm, "short, across the edge", 20.0)
        sim.schedule(WHEEL_GRANULE - 10.0, arm, "short, before the edge", 5.0)
        sim.run()
        assert parked == {
            "last instant of granule 0": False,
            "first instant of granule 1": True,
            "short, across the edge": True,
            "short, before the edge": False,
        }

    def test_cross_tier_execution_order(self, sim):
        order = []
        sim.schedule(WHEEL_GRANULE * 40, order.append, "far")
        sim.schedule_timer(WHEEL_GRANULE * 1.5, order.append, "wheel")
        sim.schedule(WHEEL_GRANULE * 0.75, order.append, "mid")
        sim.schedule(1.0, order.append, "near")
        sim.schedule_timer(2.0, order.append, "near timer")
        sim.run()
        assert order == ["near", "near timer", "mid", "wheel", "far"]


class TestWheelFlush:
    def test_flush_preserves_schedule_order(self, sim):
        """A surviving timer fires exactly where schedule() would put it."""
        order = []
        t = WHEEL_GRANULE * 1.25
        sim.schedule_timer(t, order.append, "timer")
        sim.schedule(t, order.append, "event")  # same instant, later seq
        sim.schedule(t + 1.0, order.append, "after")
        sim.run()
        assert order == ["timer", "event", "after"]

    def test_flush_respects_priority(self, sim):
        order = []
        t = WHEEL_GRANULE * 1.25
        sim.schedule(t, order.append, "normal")
        sim.schedule_timer(t, order.append, "high", priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal"]

    def test_flush_happens_at_the_lower_bound(self, sim):
        """A bucket stays parked until the head reaches its lower bound,
        and is flushed before a head *at* that bound is dispatched."""
        t = WHEEL_GRANULE * 1.25
        seen = []

        def probe(label):
            seen.append((label, bool(sim._wheel)))

        sim.schedule(t - 1.0, probe, "before")
        sim.schedule(t, probe, "equal-time event")  # earlier seq
        sim.schedule_timer(t, probe, "timer")
        sim.run()
        assert seen == [
            ("before", True),
            ("equal-time event", False),
            ("timer", False),
        ]

    def test_flush_moves_every_due_bucket_and_keeps_the_rest(self, sim):
        first = [
            sim.schedule_timer(WHEEL_GRANULE * 1.5, lambda: None),
            sim.schedule_timer(WHEEL_GRANULE * 2.5, lambda: None),
        ]
        later = sim.schedule_timer(WHEEL_GRANULE * 4.5, lambda: None)
        sim._wheel_flush(WHEEL_GRANULE * 3)
        assert sim._heap == sorted(first)
        assert list(sim._wheel) == [4.0]
        assert sim._wheel_lo == later[0]
        assert sim.pending_events == 3

    def test_lower_bound_trails_a_bucket_armed_mid_granule(self, sim):
        """``lb`` is the lowest time parked, not the granule start, and
        a later timer in the same bucket rides along in order."""
        order = []

        def arm():
            sim.schedule_timer(WHEEL_GRANULE + 50.0 - sim.now, order.append, "late")
            sim.schedule_timer(WHEEL_GRANULE + 2.0 - sim.now, order.append, "early")

        def granule_start():
            order.append(("granule start", len(sim._wheel)))

        sim.schedule(1.0, arm)
        sim.schedule(WHEEL_GRANULE + 1.0, granule_start)
        sim.schedule(WHEEL_GRANULE + 5.0, order.append, "between")
        sim.run()
        assert order == [("granule start", 1), "early", "between", "late"]

    def test_cancelled_lowest_timer_keeps_a_conservative_bound(self, sim):
        low = sim.schedule_timer(WHEEL_GRANULE + 10.0, lambda: None)
        sim.schedule_timer(WHEEL_GRANULE + 90.0, lambda: None)
        sim.cancel(low)
        assert sim._wheel_lo == WHEEL_GRANULE + 10.0
        sim.run()
        assert (sim.timers_reclaimed, sim.cancelled_pops) == (1, 0)
        assert sim.events_executed == 1

    def test_run_until_flushes_timers_due_before_the_limit(self, sim):
        """The next heap event lies past ``until``; a parked timer before
        it still runs."""
        fired = []
        sim.schedule_timer(WHEEL_GRANULE * 2, fired.append, "timer")
        sim.schedule(WHEEL_GRANULE * 3, fired.append, "event")
        assert sim.run(until=WHEEL_GRANULE * 2.5) == WHEEL_GRANULE * 2.5
        assert fired == ["timer"]

    def test_peek_and_step_flush_the_wheel(self, sim):
        fired = []
        sim.schedule_timer(WHEEL_GRANULE * 2, fired.append, "timer")
        sim.schedule(WHEEL_GRANULE * 3, fired.append, "event")
        assert sim.peek() == WHEEL_GRANULE * 2
        assert sim.step() and fired == ["timer"]
        assert sim.step() and fired == ["timer", "event"]
        assert not sim.step()

    def test_cancelled_timers_never_reach_queues(self, sim):
        handles = [
            sim.schedule_timer(WHEEL_GRANULE * 2 + i, lambda: None)
            for i in range(10)
        ]
        for h in handles:
            sim.cancel(h)
        assert sim.timers_reclaimed == 10
        sim.schedule(WHEEL_GRANULE * 3, lambda: None)  # force time past wheel
        sim.run()
        # Reclaimed wholesale: not one turned into a lazy cancelled pop.
        assert sim.cancelled_pops == 0
        assert not sim._wheel and sim._wheel_lo == float("inf")

    def test_pending_events_counts_live_parked_timers(self, sim):
        a = sim.schedule_timer(WHEEL_GRANULE * 2, lambda: None)
        sim.schedule_timer(WHEEL_GRANULE * 2 + 1, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(a)
        assert sim.pending_events == 1


class TestWheelCompaction:
    def test_churny_bucket_is_compacted_in_place(self, sim):
        """Arm/cancel churn inside one granule can't grow its bucket."""
        t = WHEEL_GRANULE * 3
        for _ in range(10_000):
            sim.cancel(sim.schedule_timer(t, lambda: None))
        (entry,) = sim._wheel.values()
        assert len(entry[2]) < 5_000  # compacted, not 10k dead handles
        assert sim.timers_reclaimed == 10_000

    def test_live_heavy_bucket_raises_its_cap(self, sim):
        t = WHEEL_GRANULE * 3
        live = [sim.schedule_timer(t, lambda: None) for _ in range(3_000)]
        (entry,) = sim._wheel.values()
        assert entry[1] > 3_000  # cap grew past the live population
        for h in live:
            sim.cancel(h)
        assert sim.pending_events == 0


class TestTimerSemantics:
    def test_surviving_timer_fires_with_args(self, sim):
        fired = []
        sim.schedule_timer(WHEEL_GRANULE * 1.5, fired.append, 42)
        sim.run()
        assert fired == [42]
        assert sim.events_executed == 1

    def test_cancel_after_fire_is_noop(self, sim):
        h = sim.schedule_timer(WHEEL_GRANULE * 1.5, lambda: None)
        sim.run()
        sim.cancel(h)
        assert sim.timers_reclaimed == 0
        assert sim.pending_events == 0

    def test_flushed_timer_cancel_counts_as_live_cancel(self, sim):
        """Cancelling after flush is the lazy path, not wheel reclaim."""
        # The cancel runs at the timer's own instant, ahead of it by
        # priority: the head reaching the bucket's bound flushed it.
        t = WHEEL_GRANULE + 6.0
        h = sim.schedule_timer(t, lambda: None)
        sim.schedule_at(t, sim.cancel, h, priority=PRIORITY_HIGH)
        sim.run()
        assert sim.timers_reclaimed == 0  # was already flushed
        assert sim.cancelled_pops == 1  # lazily dropped at pop time
        assert sim.events_executed == 1  # only the cancelling callback

    def test_timer_delay_is_validated_like_schedule(self, sim):
        sim.schedule(WHEEL_GRANULE * 3, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="into the past"):
            sim.schedule_timer(-WHEEL_GRANULE * 2, lambda: None)
        fired = []
        sim.schedule_timer(-1e-12, fired.append, sim.now)  # rounding noise
        sim.run()
        assert fired == [WHEEL_GRANULE * 3] and sim.now == WHEEL_GRANULE * 3
