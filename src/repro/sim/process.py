"""Generator-coroutine processes.

A process wraps a Python generator.  Each ``yield`` hands the engine a
*waitable* (Timeout, SimEvent, Hold, another Process, AnyOf/AllOf); the
process is resumed with the waitable's value, or has an exception thrown
into it when the waitable fails.  ``return value`` inside the generator completes the
process and fires its ``completion_event`` with that value.

Stale-wakeup safety: every suspension gets a fresh *wait handle*.  If the
process is interrupted (or killed) while suspended, the abandoned handle is
invalidated, so a Timeout or SimEvent that fires later cannot resume the
process into the wrong wait.  Abandonment is *active*, not just a dead
flag: the handle cancels its pending timer, unsubscribes from its event,
and tells the event's owner (Store/Resource) so an in-flight delivery is
reclaimed rather than lost -- see ``docs/engine.md`` for the full
cancellation semantics.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.sim.engine import PRIORITY_HIGH, EventHandle, Simulator
from repro.sim.primitives import (
    AllOf,
    AnyOf,
    Hold,
    Interrupted,
    SimEvent,
    Timeout,
)


class ProcessKilled(Exception):
    """Raised inside a process when :meth:`Process.kill` is called."""


class _WaitHandle:
    """Per-suspension proxy handed to waitables.

    Implements the same ``_resume``/``_throw``/``sim`` surface a waitable
    expects from a process, but delivers only while it is the process's
    *current* wait.  This makes abandoned waits (after interrupt/kill)
    harmless.

    The handle also records *how to tear the wait down* so abandonment
    can release engine resources instead of leaving them to fire into a
    dead flag:

    * ``timer`` -- the engine handle of a pending ``Timeout``, or the
      end event a ``Hold`` scheduled when it was granted, cancelled on
      abandon so it never even reaches dispatch;
    * ``event`` -- the ``SimEvent`` or ``Hold`` subscribed to, notified
      via ``_waiter_abandoned`` so it can unsubscribe us, salvage a
      value or capacity unit already in flight (the Store/Resource
      lost-wakeup fix) or, for a holding ``Hold``, leave its unit to be
      released as the exception is delivered;
    * ``hooks`` -- teardown callables registered by combinators
      (``AnyOf``/``AllOf``) to cancel their children's subscriptions.
    """

    __slots__ = ("process", "sim", "active", "timer", "event", "hooks")

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.sim = process.sim
        self.active = True
        self.timer: Optional[EventHandle] = None
        self.event: Optional[SimEvent] = None
        self.hooks: Optional[List] = None

    def _resume(self, value: Any) -> None:
        if self.active:
            self.active = False
            self.process._advance(value, None)

    def _throw(self, exc: BaseException) -> None:
        if self.active:
            self.active = False
            self.process._advance(None, exc)

    def _deliver(self, value: Any, exc: Optional[BaseException]) -> None:
        """SimEvent-callback form of resume/throw (pre-bound, no closure)."""
        if self.active:
            self.active = False
            if exc is not None:
                self.process._advance(None, exc)
            else:
                self.process._advance(value, None)

    def _hold_done(self) -> None:
        """End event of a ``Hold``, the only event it schedules: release
        the unit, then resume the process."""
        if self.active:
            self.active = False
            self.event.resource.release()
            self.process._advance(None, None)

    def abandon(self) -> None:
        """Deactivate and tear down whatever this wait subscribed to."""
        self.active = False
        timer = self.timer
        if timer is not None:
            self.timer = None
            timer.cancel()
        event = self.event
        if event is not None:
            self.event = None
            event._waiter_abandoned(self)
        hooks = self.hooks
        if hooks is not None:
            self.hooks = None
            for hook in hooks:
                hook()


class Process:
    """A running simulation coroutine.

    Parameters
    ----------
    sim:
        The owning simulator.
    generator:
        A generator that yields waitables.
    name:
        Optional label for traces and debugging.

    A process is itself waitable: ``yield child_process`` suspends until the
    child returns, resuming with its return value (exceptions propagate).
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.completion_event: SimEvent = SimEvent(sim, name=f"done:{self.name}")
        self._current_wait: Optional[_WaitHandle] = None
        self._killed = False
        #: Resource of a running ``Hold`` abandoned by interrupt/kill: its
        #: unit is released as the exception is delivered.
        self._held = None
        # Kick off at the current instant, high priority so a process created
        # inside a callback starts before ordinary same-instant events.
        sim.schedule(0.0, self._advance, None, None, priority=PRIORITY_HIGH)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the process has not yet completed."""
        return not self.completion_event.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator (raises if failed / not done)."""
        return self.completion_event.value

    # ------------------------------------------------------------------
    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Step the generator once with a value or an exception."""
        if self.completion_event._triggered:
            return
        wait = self._current_wait
        self._current_wait = None
        if wait is not None and wait.active:
            # An interrupt/kill was scheduled before the process suspended,
            # so this exception lands while a fresh wait is subscribed:
            # tear that wait down or its waitable could fire later and
            # resume the generator into the wrong yield.
            wait.abandon()
        try:
            if exc is not None:
                held = self._held
                if held is not None:
                    self._held = None
                    held.release()
                waitable = self._generator.throw(exc)
            else:
                waitable = self._generator.send(value)
        except StopIteration as stop:
            self.completion_event.succeed(stop.value)
            return
        except ProcessKilled:
            if self._killed:
                self.completion_event.succeed(None)
                return
            self._fail(ProcessKilled("ProcessKilled raised without kill()"))
            return
        except BaseException as err:  # noqa: BLE001 - deliberately broad
            self._fail(err)
            return
        self._wait_on(waitable)

    def _fail(self, exc: BaseException) -> None:
        # Record the failure on the completion event so waiters see it; if
        # nobody is waiting, escalate out of the event loop rather than
        # silently swallowing a firmware bug.
        had_waiters = bool(self.completion_event._callbacks)
        self.completion_event.fail(exc)
        if not had_waiters:
            raise exc

    def _wait_on(self, waitable: Any) -> None:
        handle = _WaitHandle(self)
        self._current_wait = handle
        cls = type(waitable)
        if (
            cls is Hold
            or cls is SimEvent
            or cls is Timeout
            or isinstance(waitable, (Timeout, SimEvent, Process, AnyOf, AllOf))
        ):
            waitable._subscribe(handle)
        else:
            handle.active = False
            self.sim.schedule(
                0.0,
                self._advance,
                None,
                TypeError(f"process {self.name!r} yielded non-waitable {waitable!r}"),
                priority=PRIORITY_HIGH,
            )

    # Processes are waitable ------------------------------------------------
    def _subscribe(self, handle: Any) -> None:
        self.completion_event._subscribe(handle)

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at this instant.

        The interrupted wait is abandoned: its timer is cancelled, its
        event subscription removed, and a value already in flight to it
        is handed back to its owner (see ``_WaitHandle.abandon``) -- so a
        stale wakeup can neither resume the process nor lose an item.
        """
        if not self.alive:
            return
        wait = self._current_wait
        if wait is not None:
            self._current_wait = None
            wait.abandon()
        self.sim.schedule(
            0.0, self._advance, None, Interrupted(cause), priority=PRIORITY_HIGH
        )

    def kill(self) -> None:
        """Terminate the process (it sees :class:`ProcessKilled`)."""
        if not self.alive or self._killed:
            return
        self._killed = True
        wait = self._current_wait
        if wait is not None:
            self._current_wait = None
            wait.abandon()
        self.sim.schedule(
            0.0, self._advance, None, ProcessKilled(), priority=PRIORITY_HIGH
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
