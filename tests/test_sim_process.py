"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.primitives import Interrupted, SimEvent, Timeout
from repro.sim.process import Process, ProcessKilled


class TestBasics:
    def test_process_runs_to_completion(self, sim):
        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)
            return "done"

        p = Process(sim, proc())
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

    def test_wait_on_event_value(self, sim):
        ev = SimEvent(sim)
        results = []

        def waiter():
            v = yield ev
            results.append(v)

        Process(sim, waiter())
        sim.schedule(2.0, ev.succeed, 42)
        sim.run()
        assert results == [42]
        assert sim.now == 2.0

    def test_wait_on_already_fired_event(self, sim):
        ev = SimEvent(sim)
        ev.succeed("early")
        results = []

        def waiter():
            yield Timeout(5.0)
            v = yield ev
            results.append((sim.now, v))

        Process(sim, waiter())
        sim.run()
        assert results == [(5.0, "early")]

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

        def waiter():
            try:
                yield Process(sim, failing())
            except ValueError as e:
                return f"caught:{e}"

        w = Process(sim, waiter())
        sim.run()
        assert w.result == "caught:boom"

    def test_unobserved_failure_escalates(self, sim):
        def failing():
            yield Timeout(1.0)
            raise ValueError("unseen")

        Process(sim, failing())
        with pytest.raises(ValueError, match="unseen"):
            sim.run()

    def test_event_fail_raises_in_waiter(self, sim):
        ev = SimEvent(sim)

        def waiter():
            try:
                yield ev
            except RuntimeError:
                return "failed"

        w = Process(sim, waiter())
        sim.schedule(1.0, ev.fail, RuntimeError("nope"))
        sim.run()
        assert w.result == "failed"


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
