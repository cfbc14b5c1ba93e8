"""Unit tests for the DES engine."""

import random

import pytest

from repro.sim.engine import (
    ARGS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Simulator,
)
from repro.sim.primitives import Store, Timeout
from repro.sim.process import Process


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_at_current_instant(self, sim):
        times = []
        sim.schedule(0.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]


class TestOrdering:
    def test_fifo_among_equal_time_and_priority(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_priority_order_within_instant(self, sim):
        order = []
        sim.schedule(1.0, order.append, "normal")
        sim.schedule(1.0, order.append, "low", priority=PRIORITY_LOW)
        sim.schedule(1.0, order.append, "high", priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal", "low"]

    def test_nested_scheduling_preserves_causality(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.0, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.schedule(1.0, order.append, "sibling")
        sim.run()
        # The sibling was scheduled first at t=1, the inner event second.
        assert order == ["outer", "sibling", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, 1)
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()

    def test_cancel_releases_references(self, sim):
        big = object()
        handle = sim.schedule(1.0, lambda x: None, big)
        sim.cancel(handle)
        assert handle[ARGS] == ()

    def test_pending_events_excludes_cancelled(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(h1)
        assert sim.pending_events == 1


class TestRun:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(10.0, lambda: None)
        t = sim.run(until=5.0)
        assert t == 5.0
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_event_exactly_at_until_runs(self, sim):
        seen = []
        sim.schedule(5.0, seen.append, 1)
        sim.run(until=5.0)
        assert seen == [1]

    def test_run_advances_clock_to_until_when_idle(self, sim):
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_guards_against_livelock(self, sim):
        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=100)

    def test_stop_request(self, sim):
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]

    def test_run_not_reentrant(self, sim):
        def inner():
            with pytest.raises(RuntimeError, match="re-entrant"):
                sim.run()

        sim.schedule(1.0, inner)
        sim.run()

    def test_events_executed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_peek(self, sim):
        assert sim.peek() is None
        h = sim.schedule(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.peek() == 3.0
        sim.cancel(h)
        assert sim.peek() == 7.0


class TestMaxEventsExactSemantics:
    """Regression: ``executed > max_events`` let ``max_events + 1``
    callbacks run before the livelock guard tripped."""

    def test_exactly_max_events_callbacks_run_before_raise(self, sim):
        ran = []

        def respawn():
            ran.append(sim.now)
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="max_events=7"):
            sim.run(max_events=7)
        assert len(ran) == 7

    def test_heap_draining_in_exactly_max_events_completes(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=5)  # exact fit is success, not livelock
        assert sim.events_executed == 5

    def test_live_events_beyond_until_do_not_trip_the_guard(self, sim):
        seen = []
        for t in (1.0, 2.0, 10.0):
            sim.schedule(t, seen.append, t)
        sim.run(until=5.0, max_events=2)
        assert seen == [1.0, 2.0]


class TestTinyNegativeDelayClamp:
    """Regression: float error in ``now + dt`` chains produces deltas
    like -1e-12, which used to raise instead of clamping to zero."""

    def test_rounding_noise_delay_runs_at_current_instant(self, sim):
        times = []
        sim.schedule(-1e-12, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]

    def test_clamp_boundary_is_inclusive(self, sim):
        sim.schedule(-1e-9, lambda: None)
        sim.run()
        assert sim.events_executed == 1

    def test_genuinely_negative_delay_still_raises(self, sim):
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            sim.schedule(-1e-8, lambda: None)

    def test_float_chain_arithmetic_schedules_cleanly(self, sim):
        # 0.1 + 0.2 - 0.3 style residue: target - now can be ~ -5.6e-17.
        sim.schedule(0.1 + 0.2, lambda: None)
        sim.run()
        target = 0.3
        delta = target - sim.now  # tiny negative on binary floats
        assert delta <= 0
        sim.schedule(delta, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            s = Simulator()
            log = []

            def tick(i):
                log.append((s.now, i))
                if i < 20:
                    s.schedule(0.7 * (i % 3) + 0.1, tick, i + 1)

            for j in range(4):
                s.schedule(j * 0.3, tick, j)
            s.run()
            return log

        assert build_and_run() == build_and_run()


def _storm(sim: Simulator, log: list, seed: int = 1234, budget: int = 3000) -> None:
    """Seed a schedule/cancel/timer storm on ``sim``: every firing
    appends to ``log`` and, while ``budget`` lasts, schedules follow-ons
    (some far enough out for the overflow tier), arms wheel timers and
    cancels a random earlier handle."""
    rng = random.Random(seed)
    handles = []

    def fire(tag):
        log.append((sim.now, tag))
        if len(log) >= budget:
            return
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice([0.0, 0.3, 1.0, 7.5, 40.0, 600.0, 5000.0])
            prio = rng.choice([PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW])
            handles.append(sim.schedule(delay, fire, rng.randrange(10**6), priority=prio))
        if rng.random() < 0.3:
            delay = rng.choice([300.0, 2000.0, 9000.0])
            handles.append(sim.schedule_timer(delay, fire, -len(log)))
        if handles and rng.random() < 0.45:
            sim.cancel(handles.pop(rng.randrange(len(handles))))

    for i in range(30):
        sim.schedule(rng.random() * 20.0, fire, i)


def _counters(sim: Simulator) -> tuple:
    return (sim.events_executed, sim.cancelled_pops, sim.timers_reclaimed,
            sim.pending_events)


def _drive_chunked(sim: Simulator, until: float, chunk: float = 37.5) -> None:
    t = 0.0
    while t < until:
        t = min(t + chunk, until)
        sim.run(until=t)


def _drive_steps(sim: Simulator, until: float) -> None:
    while sim.peek() is not None and sim.peek() <= until:
        sim.step()


class TestOneDispatchLoop:
    """``run()`` is one dispatch loop for every mode: however a storm is
    driven, the same callbacks run in the same order and the counters
    agree whenever ``run()`` is not on the stack."""

    DRIVERS = {
        "run": lambda sim, until: sim.run(until=until),
        "run_max_events": lambda sim, until: sim.run(until=until, max_events=10**7),
        "chunked_until": _drive_chunked,
        "steps": _drive_steps,
    }

    @staticmethod
    def _stepped(seed: int = 1234):
        """The reference: the storm driven one ``step()`` at a time,
        with a snapshot at t=4000."""
        sim, log = Simulator(), []
        _storm(sim, log, seed=seed)
        _drive_steps(sim, 4000.0)
        mid = (len(log), _counters(sim))
        while sim.step():
            pass
        return sim, log, mid

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_storm_is_identical_in_every_mode(self, driver):
        reference_sim, reference, reference_mid = self._stepped()
        assert len(reference) > 3000
        assert reference_sim.cancelled_pops > 0
        assert reference_sim.timers_reclaimed > 0

        sim, log = Simulator(), []
        _storm(sim, log)
        self.DRIVERS[driver](sim, 4000.0)
        assert (len(log), _counters(sim)) == reference_mid
        sim.run()
        assert log == reference
        assert sim.now == reference_sim.now
        assert _counters(sim) == _counters(reference_sim)

    @pytest.mark.parametrize("kwargs", [{}, {"max_events": 10**7}])
    def test_one_run_drains_like_stepping(self, kwargs):
        reference_sim, reference, _ = self._stepped(seed=99)
        sim, log = Simulator(), []
        _storm(sim, log, seed=99)
        sim.run(**kwargs)
        assert log == reference
        assert (sim.now, _counters(sim)) == (reference_sim.now, _counters(reference_sim))

    def test_profiled_high_water_matches_stepping(self):
        a, log_a = Simulator(profile=True), []
        _storm(a, log_a, seed=5)
        a.run()
        b, log_b = Simulator(profile=True), []
        _storm(b, log_b, seed=5)
        while b.step():
            pass
        assert log_a == log_b
        assert a.heap_high_water == b.heap_high_water > 0
        assert {k: v[0] for k, v in a.profile_stats().items()} == {
            k: v[0] for k, v in b.profile_stats().items()
        }


class TestCountersOnException:
    """A raising callback propagates out of ``run()`` with the counters
    flushed: exact, and the run resumable."""

    @pytest.mark.parametrize(
        "kwargs", [{}, {"max_events": 100}, {"until": 10.0}],
        ids=["plain", "max_events", "until"],
    )
    def test_raising_callback_leaves_counters_exact(self, sim, kwargs):
        ran = []
        for i in range(5):
            sim.schedule(float(i), ran.append, i)
        sim.cancel(sim.schedule(2.5, ran.append, "cancelled"))

        def boom():
            ran.append("boom")
            raise ValueError("boom")

        sim.schedule(3.0, boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run(**kwargs)
        assert ran == [0, 1, 2, 3, "boom"]
        assert sim.now == 3.0
        assert sim.events_executed == 5
        assert sim.cancelled_pops == 1
        assert sim.pending_events == 1
        sim.run(**kwargs)
        assert ran[-1] == 4
        assert sim.events_executed == 6
        assert sim.pending_events == 0

    def test_livelock_error_leaves_counters_exact(self, sim):
        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=10)
        assert sim.events_executed == 10
        assert sim.pending_events == 1
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=5)
        assert sim.events_executed == 15


class TestStopUnderLimits:
    def test_stop_under_until(self, sim):
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        assert sim.run(until=10.0) == 1.0
        assert seen == [1]
        assert sim.pending_events == 1
        assert sim.run(until=10.0) == 10.0
        assert seen == [1, 2]

    def test_stop_under_max_events(self, sim):
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        # The stop wins over the exhausted budget: no livelock error.
        sim.run(max_events=1)
        assert seen == [1]
        assert sim.events_executed == 1
        sim.run(max_events=1)
        assert seen == [1, 2]


class TestKernelThroughput:
    def test_raw_event_dispatch(self):
        """A self-rescheduling tick runs exactly its 50,001 events."""
        sim = Simulator()
        count = 50_000

        def tick(i):
            if i < count:
                sim.schedule(1.0, tick, i + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert sim.events_executed == 50_001

    def test_producer_consumer_processes(self):
        """10,000 items through a Store between two processes, none lost."""
        sim = Simulator()
        store = Store(sim)
        items = 10_000

        def producer():
            for i in range(items):
                yield Timeout(0.1)
                store.put(i)

        def consumer():
            total = 0
            for _ in range(items):
                total += yield store.get()
            return total

        Process(sim, producer())
        c = Process(sim, consumer())
        sim.run()
        assert c.result == sum(range(items))
