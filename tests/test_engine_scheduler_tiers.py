"""White-box tests for the two-tier scheduler and the timer wheel.

``test_sim_engine.py`` pins the *semantics* (ordering, cancellation,
until/max_events); these tests pin the *mechanism*: events routed to the
right tier, calendar-bucket advance, wheel flush ordering across bucket
boundaries, parked-timer reclamation, and adaptive compaction.  They
reach into ``Simulator`` internals deliberately -- if the layout changes,
update them alongside the engine.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    BUCKET_WIDTH,
    HORIZON_BUCKETS,
    WHEEL_GRANULE,
    PRIORITY_HIGH,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestTierRouting:
    def test_near_event_goes_to_current_bucket(self, sim):
        sim.schedule(BUCKET_WIDTH / 2, lambda: None)
        assert len(sim._cur) == 1
        assert not sim._cal and not sim._ovf

    def test_mid_event_goes_to_calendar(self, sim):
        sim.schedule(BUCKET_WIDTH * 3.5, lambda: None)
        assert not sim._cur
        assert len(sim._cal) == 1
        assert not sim._ovf

    def test_far_event_goes_to_overflow(self, sim):
        sim.schedule(BUCKET_WIDTH * HORIZON_BUCKETS * 2, lambda: None)
        assert not sim._cur and not sim._cal
        assert len(sim._ovf) == 1

    def test_far_timer_parks_in_wheel(self, sim):
        sim.schedule_timer(WHEEL_GRANULE * 2, lambda: None)
        assert not sim._cur and not sim._cal and not sim._ovf
        assert len(sim._wheel) == 1

    def test_near_timer_skips_wheel(self, sim):
        sim.schedule_timer(BUCKET_WIDTH / 2, lambda: None)
        assert len(sim._cur) == 1
        assert not sim._wheel

    def test_cross_tier_execution_order(self, sim):
        order = []
        sim.schedule(BUCKET_WIDTH * HORIZON_BUCKETS * 3, order.append, "ovf")
        sim.schedule_timer(WHEEL_GRANULE * 1.5, order.append, "wheel")
        sim.schedule(BUCKET_WIDTH * 2.5, order.append, "cal")
        sim.schedule(1.0, order.append, "cur")
        sim.run()
        assert order == ["cur", "cal", "wheel", "ovf"]


class TestBucketAdvance:
    def test_calendar_bucket_opens_with_heap_order(self, sim):
        """Entries appended unsorted to a future bucket fire in order."""
        base = BUCKET_WIDTH * 5
        order = []
        for offset in (7.0, 1.0, 4.0, 2.5):
            sim.schedule(base + offset, order.append, offset)
        assert len(sim._cal) == 1  # one unsorted future bucket
        sim.run()
        assert order == [1.0, 2.5, 4.0, 7.0]

    def test_overflow_drains_into_opening_bucket(self, sim):
        """Overflow entries within an opening bucket fire interleaved."""
        far = BUCKET_WIDTH * (HORIZON_BUCKETS + 1)
        order = []
        sim.schedule(far + 1.0, order.append, "ovf-early")
        sim.schedule(far + 9.0, order.append, "ovf-late")

        def arm_calendar():
            # By now the horizon has advanced: the same instants land in
            # the calendar tier, interleaving with the old overflow entries.
            sim.schedule_at(far + 5.0, order.append, "cal-mid")

        sim.schedule(far - BUCKET_WIDTH * 2, arm_calendar)
        sim.run()
        assert order == ["ovf-early", "cal-mid", "ovf-late"]

    def test_schedule_into_open_bucket_from_callback(self, sim):
        """A callback scheduling into the *current* bucket stays ordered."""
        order = []

        def first():
            order.append("first")
            sim.schedule(0.5, order.append, "nested")

        sim.schedule(BUCKET_WIDTH * 4 + 1.0, first)
        sim.schedule(BUCKET_WIDTH * 4 + 2.0, order.append, "second")
        sim.run()
        assert order == ["first", "nested", "second"]


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
        assert not sim._wheel

    def test_wheel_bucket_flushes_into_open_current_bucket(self, sim):
        """lb is conservative: a flush can land in the *open* bucket."""
        order = []

        def arm():
            # now is mid-bucket; this timer's instant is inside a wheel
            # granule whose lower bound trails the current bucket's end.
            sim.schedule_timer(WHEEL_GRANULE - sim.now + 2.0, order.append, "t")

        sim.schedule(1.0, arm)
        sim.schedule(WHEEL_GRANULE + 5.0, order.append, "after")
        sim.run()
        assert order == ["t", "after"]

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
        # Timer at granule+boundary+6; the cancel runs at boundary+1,
        # inside the calendar bucket whose opening flushed the wheel.
        h = sim.schedule_timer(WHEEL_GRANULE + 6.0, lambda: None)
        sim.schedule(WHEEL_GRANULE + 1.0, sim.cancel, h)
        sim.run()
        assert sim.timers_reclaimed == 0  # was already flushed
        assert sim.cancelled_pops == 1  # lazily dropped at pop time
        assert sim.events_executed == 1  # only the cancelling callback
