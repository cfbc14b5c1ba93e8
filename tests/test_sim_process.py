"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.primitives import Interrupted, Timeout
from repro.sim.process import Process, ProcessKilled, _WaitHandle


class TestBasics:
    def test_process_runs_to_completion(self, sim):
        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)
            return "done"

        p = Process(sim, proc())
        with pytest.raises(RuntimeError, match="has not finished"):
            _ = p.result
        sim.run()
        assert not p.alive
        assert p.result == "done"
        assert sim.now == 3.0

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError, match="generator"):
            Process(sim, lambda: None)

    def test_timeout_resume_value(self, sim):
        values = []

        def proc():
            v = yield Timeout(1.5)
            values.append(v)

        Process(sim, proc())
        sim.run()
        assert values == [1.5]

    def test_wait_on_child_process(self, sim):
        def child():
            yield Timeout(3.0)
            return "child-result"

        def parent():
            c = Process(sim, child())
            v = yield c
            return v

        p = Process(sim, parent())
        sim.run()
        assert p.result == "child-result"

    def test_yield_non_waitable_fails_process(self, sim):
        def bad():
            yield 42

        p = Process(sim, bad())

        def check():
            try:
                yield p
            except TypeError as e:
                return str(e)

        checker = Process(sim, check())
        sim.run()
        assert "non-waitable" in checker.result


class TestFailure:
    def test_exception_propagates_to_waiter(self, sim):
        def failing():
            yield Timeout(1.0)
            raise ValueError("boom")

        child = Process(sim, failing())

        def waiter():
            try:
                yield child
            except ValueError as e:
                return f"caught:{e}"

        w = Process(sim, waiter())
        sim.run()
        assert w.result == "caught:boom"
        with pytest.raises(ValueError, match="boom"):
            _ = child.result

    def test_unobserved_failure_escalates(self, sim):
        def failing():
            yield Timeout(1.0)
            raise ValueError("unseen")

        Process(sim, failing())
        with pytest.raises(ValueError, match="unseen"):
            sim.run()


def _child(delay, value):
    yield Timeout(delay)
    return value


@pytest.fixture
def deliveries(monkeypatch):
    """Every join delivery run, as ``(joiner name, value)``, no-ops too."""
    log = []
    deliver = _WaitHandle._deliver

    def logged(handle, value, exc):
        log.append((handle.process.name, value))
        deliver(handle, value, exc)

    monkeypatch.setattr(_WaitHandle, "_deliver", logged)
    return log


class TestJoin:
    def test_join_finished_process_resumes_at_once(self, sim, deliveries):
        child = Process(sim, _child(1.0, "early"))
        results = []

        def joiner():
            yield Timeout(5.0)
            v = yield child
            results.append((sim.now, v))

        Process(sim, joiner(), name="joiner")
        sim.run()
        assert results == [(5.0, "early")]
        assert deliveries == [("joiner", "early")]

    @pytest.mark.parametrize("strike", ["interrupt", "kill"])
    def test_struck_joiner_is_not_woken_by_the_end(self, sim, deliveries, strike):
        child = Process(sim, _child(10.0, "late"))
        log = []

        def joiner():
            try:
                yield child
            except Interrupted:
                log.append(("interrupted", sim.now))
            v = yield Timeout(20.0)
            log.append(("slept", sim.now, v))

        j = Process(sim, joiner(), name="joiner")
        sim.schedule(3.0, getattr(j, strike))
        sim.run(until=5.0)
        assert child._joiners == []
        sim.run()
        assert deliveries == []
        assert child.result == "late"
        assert not j.alive
        if strike == "interrupt":
            assert log == [("interrupted", 3.0), ("slept", 23.0, 20.0)]
        else:
            assert log == []
            assert j.result is None

    @pytest.mark.parametrize("strike", ["interrupt", "kill"])
    def test_strike_after_the_delivery_is_queued(self, sim, deliveries, strike):
        """The first joiner's delivery runs first and strikes the second,
        whose delivery is already queued for the same instant: it runs
        as a no-op, and the second joiner sees only the strike."""
        child = Process(sim, _child(10.0, "value"))
        log = []

        def second():
            try:
                v = yield child
                log.append(("joined", sim.now, v))
            except Interrupted:
                log.append(("interrupted", sim.now))
            v = yield Timeout(5.0)
            log.append(("slept", sim.now, v))

        def first():
            v = yield child
            log.append(("first", sim.now, v))
            getattr(b, strike)()

        Process(sim, first(), name="first")
        b = Process(sim, second(), name="second")
        sim.run()
        assert deliveries == [("first", "value"), ("second", "value")]
        if strike == "interrupt":
            assert log == [
                ("first", 10.0, "value"),
                ("interrupted", 10.0),
                ("slept", 15.0, 5.0),
            ]
        else:
            assert log == [("first", 10.0, "value")]
            assert b.result is None

    def test_failure_after_abandoned_join_escalates(self, sim, deliveries):
        def failing():
            yield Timeout(10.0)
            raise ValueError("unjoined")

        child = Process(sim, failing())

        def joiner():
            try:
                yield child
            except Interrupted:
                return "gave up"

        j = Process(sim, joiner(), name="joiner")
        sim.schedule(3.0, j.interrupt)
        with pytest.raises(ValueError, match="unjoined"):
            sim.run()
        assert sim.now == 10.0
        assert j.result == "gave up"
        assert deliveries == []
        with pytest.raises(ValueError, match="unjoined"):
            _ = child.result


class TestInterrupt:
    def test_interrupt_during_timeout(self, sim):
        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupted as i:
                return ("interrupted", i.cause, sim.now)

        p = Process(sim, sleeper())

        def interrupter():
            yield Timeout(5.0)
            p.interrupt("wake-up")

        Process(sim, interrupter())
        sim.run()
        assert p.result == ("interrupted", "wake-up", 5.0)

    def test_stale_timeout_after_interrupt_is_discarded(self, sim):
        resumes = []

        def proc():
            try:
                yield Timeout(10.0)
            except Interrupted:
                pass
            v = yield Timeout(50.0)
            resumes.append((sim.now, v))

        p = Process(sim, proc())

        def interrupter():
            yield Timeout(1.0)
            p.interrupt()

        Process(sim, interrupter())
        sim.run()
        # The abandoned t=10 wakeup must not resume the t=51 wait early.
        assert resumes == [(51.0, 50.0)]

    def test_interrupt_dead_process_is_noop(self, sim):
        def quick():
            yield Timeout(1.0)

        p = Process(sim, quick())
        sim.run()
        p.interrupt()
        sim.run()


class TestKill:
    def test_kill_terminates(self, sim):
        def forever():
            while True:
                yield Timeout(1.0)

        p = Process(sim, forever())

        def killer():
            yield Timeout(5.0)
            p.kill()

        Process(sim, killer())
        sim.run()
        assert not p.alive
        assert p.result is None

    def test_kill_runs_finally_blocks(self, sim):
        cleanups = []

        def with_cleanup():
            try:
                while True:
                    yield Timeout(1.0)
            finally:
                cleanups.append(sim.now)

        p = Process(sim, with_cleanup())

        def killer():
            yield Timeout(3.0)
            p.kill()

        Process(sim, killer())
        sim.run()
        assert cleanups == [3.0]
