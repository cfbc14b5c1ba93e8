"""Generator-coroutine processes.

A process wraps a Python generator.  Each ``yield`` hands the engine one
*waitable* (Timeout, SimEvent, Hold, a ``Store.get()``, another Process);
the process is resumed with the waitable's value, or has an exception
thrown into it when the waitable fails.  ``return value`` inside the
generator completes the process and fires its ``completion_event`` with
that value.

Stale-wakeup safety: every suspension has its own *wait record*.  For a
:class:`~repro.sim.primitives.Hold` or a ``Store.get()`` the waitable is
the record; any other waitable gets a fresh :class:`_WaitHandle`.  If the
process is interrupted (or killed) while suspended, the abandoned record
is invalidated, so a Timeout or SimEvent that fires later cannot resume
the process into the wrong wait.  Abandonment is *active*, not just a
dead flag: the record cancels its pending timer, unsubscribes from its
event, and tells the event's owner (Store/Resource) so an in-flight
delivery is reclaimed rather than lost -- see ``docs/engine.md`` for the
full cancellation semantics.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import PRIORITY_HIGH, Simulator
from repro.sim.primitives import Hold, Interrupted, SimEvent, Timeout, _Get


class ProcessKilled(Exception):
    """Raised inside a process when :meth:`Process.kill` is called."""


class _WaitHandle:
    """Per-suspension proxy handed to waitables that are not their own
    wait record (everything but a ``Hold`` and a ``Store.get()``).

    Offers the ``_resume``/``_deliver``/``sim`` surface a ``Timeout`` or
    ``SimEvent`` subscribes to, but delivers only while it is the
    process's *current* wait.  This makes abandoned waits (after
    interrupt/kill) harmless.

    The handle also records *how to tear the wait down* so abandonment
    can release engine resources instead of leaving them to fire into a
    dead flag:

    * ``timer`` -- the engine handle of a pending ``Timeout``,
      cancelled on abandon so it never even reaches dispatch;
    * ``event`` -- the ``SimEvent`` subscribed to, notified via
      ``_waiter_abandoned`` so it can unsubscribe us or salvage a value
      or capacity unit already in flight (the Resource lost-wakeup
      fix).
    """

    __slots__ = ("process", "sim", "active", "timer", "event")

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.sim = process.sim
        self.active = True
        self.timer: Optional[list] = None
        self.event: Optional[SimEvent] = None

    def _resume(self, value: Any) -> None:
        if self.active:
            self.active = False
            self.process._advance(value, None)

    def _deliver(self, value: Any, exc: Optional[BaseException]) -> None:
        """The SimEvent callback: resume with ``value``, or throw ``exc``
        (a failed event's value is None)."""
        if self.active:
            self.active = False
            self.process._advance(value, exc)

    def abandon(self) -> None:
        """Deactivate and tear down whatever this wait subscribed to."""
        self.active = False
        timer = self.timer
        if timer is not None:
            self.timer = None
            self.sim.cancel(timer)
        event = self.event
        if event is not None:
            self.event = None
            event._waiter_abandoned(self)


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
        #: The wait record of the current suspension (a ``_WaitHandle``,
        #: ``Hold`` or ``Store.get()`` event), None while running.
        self._current_wait: Any = None
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
        cls = type(waitable)
        if cls is Hold or cls is _Get:
            # The waitable is its own wait record.
            self._current_wait = waitable
            waitable._wait(self)
        else:
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
        """Suspend on a waitable that is not its own wait record."""
        cls = type(waitable)
        handle = _WaitHandle(self)
        self._current_wait = handle
        if (
            cls is SimEvent
            or cls is Timeout
            or isinstance(waitable, (Timeout, SimEvent, Process))
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
        is handed back to its owner (see ``_WaitHandle.abandon``,
        ``Hold.abandon``) -- so a
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

    def close(self) -> None:
        """End the process now, with no event (``Cluster.close``): the
        wait is abandoned as on :meth:`kill`, the completion event is
        marked fired without waking anyone, the generator is closed."""
        wait, self._current_wait = self._current_wait, None
        if wait is not None:
            wait.abandon()
        held, self._held = self._held, None
        if held is not None:
            held.release()
        self.completion_event._triggered = True
        self.completion_event._callbacks = None
        self._generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
