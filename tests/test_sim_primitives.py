"""Unit + property tests for Store, Resource and SimEvent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.primitives import Interrupted, Resource, SimEvent, Store, Timeout
from repro.sim.process import Process


class TestSimEvent:
    def test_succeed_once(self, sim):
        ev = SimEvent(sim)
        ev.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed(2)

    def test_value_before_fire_raises(self, sim):
        ev = SimEvent(sim)
        with pytest.raises(RuntimeError, match="not fired"):
            _ = ev.value

    def test_value_after_fail_raises_exception(self, sim):
        ev = SimEvent(sim)
        ev.fail(KeyError("k"))
        with pytest.raises(KeyError):
            _ = ev.value

    def test_callback_after_fire_still_delivered(self, sim):
        ev = SimEvent(sim)
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda v, e: seen.append((v, e)))
        sim.run()
        assert seen == [("v", None)]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")
        results = []

        def getter():
            v = yield store.get()
            results.append(v)

        Process(sim, getter())
        sim.run()
        assert results == ["a"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def getter():
            v = yield store.get()
            results.append((sim.now, v))

        Process(sim, getter())
        sim.schedule(4.0, store.put, "late")
        sim.run()
        assert results == [(4.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def getter():
            for _ in range(5):
                out.append((yield store.get()))

        Process(sim, getter())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        out = []

        def getter(tag):
            v = yield store.get()
            out.append((tag, v))

        Process(sim, getter("first"))
        Process(sim, getter("second"))
        sim.schedule(1.0, store.put, "a")
        sim.schedule(2.0, store.put, "b")
        sim.run()
        assert out == [("first", "a"), ("second", "b")]

    def test_bounded_overflow_raises(self, sim):
        store = Store(sim, capacity=2)
        store.put(1)
        store.put(2)
        with pytest.raises(OverflowError):
            store.put(3)

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_peek_does_not_consume(self, sim):
        store = Store(sim)
        store.put("x")
        assert store.peek() == "x"
        assert len(store) == 1

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestResource:
    def test_exclusive_use_serializes(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(tag):
            yield res.request()
            start = sim.now
            yield Timeout(10.0)
            res.release()
            spans.append((tag, start, sim.now))

        Process(sim, worker("a"))
        Process(sim, worker("b"))
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_capacity_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def worker(tag):
            yield res.hold(10.0)
            done.append((tag, sim.now))

        for tag in "abc":
            Process(sim, worker(tag))
        sim.run()
        assert done == [("a", 10.0), ("b", 10.0), ("c", 20.0)]

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def worker(tag, arrive):
            yield Timeout(arrive)
            yield res.request()
            grants.append(tag)
            yield Timeout(5.0)
            res.release()

        Process(sim, worker("a", 0.0))
        Process(sim, worker("b", 1.0))
        Process(sim, worker("c", 2.0))
        sim.run()
        assert grants == ["a", "b", "c"]

    def test_utilization(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield res.hold(25.0)

        Process(sim, worker())
        sim.run(until=100.0)
        assert res.utilization() == pytest.approx(0.25)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)



def _legacy_use(resource, duration):
    """``Resource.use`` as written before ``Resource.hold`` existed
    (request, timeout, release in ``finally``): the reference whose grant
    order, release instants and completions the single-yield charge must
    match."""
    request = resource.request()
    acquired = False
    try:
        yield request
        acquired = True
        yield Timeout(duration)
    finally:
        if acquired:
            resource.release()


def _hold(resource, duration):
    yield resource.hold(duration)


CHARGES = {"hold": _hold, "legacy_use": _legacy_use}


def _teardown_scenario(charge, state, action):
    """A charges 0-10; B queues at 1 for 5 us; C queues at 2 for 5 us.

    B is interrupted or killed while queued (t=3), in the instant it is
    granted (``in_flight``: by A, right after A's release at 10) or
    while holding (t=12); an interrupted B charges 1 us more.  Returns every release
    (time, waiters left), the teardown call and every completion in
    order, then the clock, the engine counters and the resource's state.
    """
    sim = Simulator()
    res = Resource(sim, capacity=1, name="cpu")
    log = []
    release = res.release

    def logged_release():
        log.append(("release", sim.now, res.queued))
        release()

    res.release = logged_release

    def act():
        getattr(b_proc, action)()
        log.append((action, sim.now, res.in_use, res.queued))

    def a():
        yield from charge(res, 10.0)
        log.append(("A done", sim.now))
        if state == "in_flight":
            act()

    def b():
        yield Timeout(1.0)
        try:
            yield from charge(res, 5.0)
            log.append(("B done", sim.now))
        except Interrupted:
            log.append(("B interrupted", sim.now))
            yield from charge(res, 1.0)
            log.append(("B again", sim.now))
        finally:
            log.append(("B exit", sim.now))

    def c():
        yield Timeout(2.0)
        yield from charge(res, 5.0)
        log.append(("C done", sim.now))

    Process(sim, a(), name="A")
    b_proc = Process(sim, b(), name="B")
    Process(sim, c(), name="C")
    at = {"queued": 3.0, "holding": 12.0}.get(state)
    if at is not None:
        sim.schedule(at, act)
    sim.run()
    log.append((
        "end", sim.now, sim.events_executed, sim.cancelled_pops,
        res.in_use, res.queued, res.busy_us,
    ))
    return log


def _contract(log):
    """What a charge keeps from the request/timeout/release sequence:
    every release (instant, waiters left) and completion in order, the
    final clock and the resource's end state.  The teardown call's own
    row and the engine counters are left out."""
    *rows, end = [row for row in log if row[0] not in ("interrupt", "kill")]
    return rows, end[1], end[4:]


class TestHold:
    """``Resource.hold`` is one yield and one end event per charge, with
    the grant order, release instants and completions of the
    request/timeout/release sequence of the old ``use()``."""

    #: (events executed, cancelled pops) of each teardown scenario:
    #: (hold, request/timeout/release).  The hold saves one event per
    #: granted charge: its grant schedules the end event inline, where
    #: the old sequence ran a grant resume and then a timeout.
    TEARDOWN_COUNTERS = {
        ("queued", "interrupt"): ((10, 0), (13, 0)),
        ("queued", "kill"): ((9, 0), (11, 0)),
        ("in_flight", "interrupt"): ((9, 1), (13, 0)),
        ("in_flight", "kill"): ((8, 1), (11, 0)),
        ("holding", "interrupt"): ((10, 1), (14, 1)),
        ("holding", "kill"): ((9, 1), (12, 1)),
    }

    def test_one_resume_per_charge(self, sim):
        res = Resource(sim, capacity=1)
        resumes = []

        def worker():
            resumes.append(sim.now)
            value = yield res.hold(4.0)
            resumes.append((sim.now, value, res.in_use))

        Process(sim, worker())
        sim.run()
        assert resumes == [0.0, (4.0, None, 0)]
        # Start and end: the grant schedules the end event inline.
        assert sim.events_executed == 2

    def test_negative_duration_rejected(self, sim):
        with pytest.raises(ValueError, match="hold duration"):
            Resource(sim).hold(-1.0)

    @pytest.mark.parametrize("action", ["interrupt", "kill"])
    @pytest.mark.parametrize("state", ["queued", "in_flight", "holding"])
    def test_teardown_matches_legacy_use(self, state, action):
        hold = _teardown_scenario(_hold, state, action)
        legacy = _teardown_scenario(_legacy_use, state, action)
        assert _contract(hold) == _contract(legacy)
        assert (hold[-1][2:4], legacy[-1][2:4]) == self.TEARDOWN_COUNTERS[
            state, action
        ]

    def test_interrupt_while_holding_releases_on_delivery(self):
        log = _teardown_scenario(_hold, "holding", "interrupt")
        assert log[:7] == [
            ("release", 10.0, 2),
            ("A done", 10.0),
            # B keeps the unit past the interrupt call; it goes back as
            # the exception reaches B, and C is granted at the same
            # instant, ahead of B's retry.
            ("interrupt", 12.0, 1, 1),
            ("release", 12.0, 1),
            ("B interrupted", 12.0),
            ("release", 17.0, 1),
            ("C done", 17.0),
        ]
        assert log[-1][4:6] == (0, 0)

    def test_kill_with_grant_in_flight_hands_the_unit_on(self):
        log = _teardown_scenario(_hold, "in_flight", "kill")
        assert log[:5] == [
            ("release", 10.0, 2),
            ("A done", 10.0),
            # A's release granted B inline, so B holds the unit when it
            # is killed in the grant instant; the unit passes to C as the
            # exception reaches B, in that same instant.
            ("kill", 10.0, 1, 1),
            ("release", 10.0, 1),
            ("B exit", 10.0),
        ]
        assert ("C done", 15.0) in log
        assert log[-1][4:6] == (0, 0)

    def test_queued_hold_is_purged(self):
        log = _teardown_scenario(_hold, "queued", "kill")
        assert log[:3] == [("kill", 3.0, 1, 1), ("B exit", 3.0), ("release", 10.0, 1)]
        assert ("C done", 15.0) in log

    @pytest.mark.parametrize("charge", sorted(CHARGES))
    def test_fifo_across_request_and_hold_waiters(self, sim, charge):
        res = Resource(sim, capacity=1)
        grants = []

        def owner():
            yield res.request()
            yield Timeout(10.0)
            res.release()

        def requester(tag, arrive):
            yield Timeout(arrive)
            yield res.request()
            grants.append((tag, sim.now))
            yield Timeout(2.0)
            res.release()

        def charger(tag, arrive):
            yield Timeout(arrive)
            yield from CHARGES[charge](res, 2.0)
            grants.append((tag, sim.now - 2.0))

        Process(sim, owner())
        for i, (kind, tag) in enumerate(
            [(requester, "r1"), (charger, "h2"), (requester, "r3"), (charger, "h4")]
        ):
            Process(sim, kind(tag, float(i + 1)))
        sim.run()
        assert grants == [("r1", 10.0), ("h2", 12.0), ("r3", 14.0), ("h4", 16.0)]
        assert res.in_use == 0

class TestStoreProperties:
    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_store_preserves_order_and_content(self, items):
        sim = Simulator()
        store = Store(sim)
        out = []

        def producer():
            for i, item in enumerate(items):
                yield Timeout(0.5)
                store.put(item)

        def consumer():
            for _ in items:
                out.append((yield store.get()))

        Process(sim, producer())
        Process(sim, consumer())
        sim.run()
        assert out == items

    @given(
        st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_resource_never_exceeds_capacity(self, durations, capacity):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = {"count": 0, "max": 0}

        def worker(d):
            yield res.request()
            active["count"] += 1
            active["max"] = max(active["max"], active["count"])
            yield Timeout(d)
            active["count"] -= 1
            res.release()

        for d in durations:
            Process(sim, worker(d))
        sim.run()
        assert active["max"] <= capacity
        assert active["count"] == 0
        # Work conserving: total busy time equals sum of durations.
        assert res.utilization() * sim.now * capacity == pytest.approx(
            sum(durations)
        )
