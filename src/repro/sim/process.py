"""Generator-coroutine processes.

A process wraps a Python generator.  Each ``yield`` hands the engine one
*waitable* (Timeout, SimEvent, Hold, a ``Store.get()``, a
``Resource.request()``, another Process);
the process is resumed with the waitable's value, or has an exception
thrown into it when the waitable fails.  ``return value`` inside the
generator completes the process and fires its ``completion_event`` with
that value.

Stale-wakeup safety: every suspension has one *wait record*.  For the
four waits of the packet path -- a :class:`~repro.sim.primitives.Timeout`,
a :class:`~repro.sim.primitives.Hold`, a ``Store.get()`` and a
``Resource.request()`` -- the process itself is the record: it keeps
the engine entry of its wake-up (``_timer``) and the unit a hold was
granted (``_held``), a Store or Resource queues it as itself, and the
wake-up calls :meth:`Process._advance` directly, which releases a held
unit before it resumes the generator.  A SimEvent or process-join wait
gets a fresh :class:`_WaitHandle`.  If the process is interrupted (or
killed) while suspended, its wait is abandoned, so nothing that fires
later can resume the process into the wrong wait.  Abandonment is
*active*, not just a dead flag: a pending timer is cancelled, a queued
getter, hold or request is purged, an event subscription is removed,
and an item or unit already in flight to the process is handed back to
its owner (Store/Resource) rather than lost -- see ``docs/engine.md``
for the full cancellation semantics.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.engine import ARGS, CALLBACK, PRIORITY_HIGH, PRIORITY_NORMAL, Simulator
from repro.sim.primitives import (
    _RESUME,
    Hold,
    Interrupted,
    Resource,
    SimEvent,
    Store,
    Timeout,
)


class ProcessKilled(Exception):
    """Raised inside a process when :meth:`Process.kill` is called."""


class _WaitHandle:
    """Per-suspension proxy for a wait on a ``SimEvent`` or on another
    process.

    Offers the ``_deliver`` callback a ``SimEvent`` subscribes, but
    delivers only while it is the process's *current* wait.
    This makes abandoned waits (after interrupt/kill) harmless.

    The handle also records *how to tear the wait down*: ``event`` is
    the ``SimEvent`` subscribed to, which drops the subscription.
    """

    __slots__ = ("process", "active", "event")

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.active = True
        self.event: Optional[SimEvent] = None

    def _deliver(self, value: Any, exc: Optional[BaseException]) -> None:
        """The SimEvent callback: resume with ``value``, or throw ``exc``
        (a failed event's value is None)."""
        if self.active:
            self.active = False
            process = self.process
            # Delivered: no longer a wait for _advance to tear down.
            process._current_wait = None
            process._advance(value, exc)

    def abandon(self) -> None:
        """Deactivate and tear down the event subscription."""
        self.active = False
        event = self.event
        if event is not None:
            self.event = None
            event._unsubscribe(self)


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
        #: What the current suspension waits on -- a ``Timeout``,
        #: ``Hold``, ``Store`` or ``Resource`` (the process is the
        #: record), or a ``_WaitHandle`` -- None while running or once
        #: delivered.
        self._current_wait: Any = None
        #: Engine entry of the wake-up of a ``Timeout``, ``Hold``,
        #: ``Store`` or ``Resource`` wait; None while it is queued.
        self._timer: Optional[list] = None
        self._killed = False
        #: Resource a ``Hold`` was granted on: its unit is released the
        #: next time the process is resumed (by the end event, or by the
        #: exception of an interrupt/kill).
        self._held = None
        # Kick off at the current instant, high priority so a process created
        # inside a callback starts before ordinary same-instant events.
        # Pushed in place: ``sim.schedule(0.0, self._advance, None, None,
        # priority=PRIORITY_HIGH)`` (see "Wake-ups the kernel pushes
        # itself" in docs/engine.md).
        sim._seq = seq = sim._seq + 1
        sim._live += 1
        heappush(sim._heap, [sim.now, PRIORITY_HIGH, seq, self._advance, _RESUME])

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
        """Step the generator once with a value or an exception.

        This is the wake-up of every wait: a ``Timeout`` or ``Hold``
        end event, a ``Store`` hand-off, a ``request()`` grant, a
        ``_WaitHandle`` delivery, an interrupt or kill.  Only the last
        two bring an exception while a wait is pending.
        """
        if self.completion_event._triggered:
            return
        wait = self._current_wait
        if wait is not None:
            self._current_wait = None
            if exc is not None:
                # An interrupt/kill was scheduled before the process
                # suspended, so this exception lands while a fresh wait
                # is pending: tear that wait down or its waitable could
                # fire later and resume the generator into the wrong
                # yield.
                self._abandon(wait)
        held = self._held
        if held is not None:
            self._held = None
            held.release()
        try:
            if exc is None:
                waitable = self._generator.send(value)
            else:
                waitable = self._generator.throw(exc)
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
        # A wait that can wake at once sets the wake-up's time, priority
        # and arguments; the one push below is the entry
        # ``sim.schedule`` would build, with the ``seq`` taken there.
        cls = type(waitable)
        sim = self.sim
        if cls is Hold:
            self._current_wait = waitable
            resource = waitable.resource
            in_use = resource._in_use
            if in_use >= resource.capacity or resource._waiters:
                self._timer = None
                resource._waiters.append(self)
                return
            # Granted at once; the busy-time accounting of
            # Resource._account, in place.  (Idle, the busy integral
            # grows by 0 * dt, so only the accounting instant moves.)
            now = sim.now
            if in_use:
                resource._busy_time += in_use * (now - resource._last_change)
            resource._last_change = now
            resource._in_use = in_use + 1
            self._held = resource
            if waitable.on_grant is not None:
                waitable.on_grant()
            when, priority, args = now + waitable.duration, PRIORITY_NORMAL, _RESUME
        elif cls is Store:
            self._current_wait = waitable
            items = waitable._items
            if not items:
                self._timer = None
                waitable._getters.append(self)
                return
            when, priority, args = sim.now, PRIORITY_HIGH, (items.popleft(), None)
        elif cls is Timeout:
            self._current_wait = waitable
            delay = waitable.delay
            when, priority, args = sim.now + delay, PRIORITY_NORMAL, (delay, None)
        elif cls is Resource:
            # An open-ended request(): a free unit is taken now and the
            # process wakes this instant; otherwise it queues.
            self._current_wait = waitable
            if not waitable.try_request():
                self._timer = None
                waitable._waiters.append(self)
                return
            when, priority, args = sim.now, PRIORITY_HIGH, _RESUME
        else:
            self._wait_on(waitable)
            return
        sim._seq = seq = sim._seq + 1
        sim._live += 1
        self._timer = entry = [when, priority, seq, self._advance, args]
        heappush(sim._heap, entry)

    def _abandon(self, wait: Any) -> None:
        """Tear down the pending ``wait`` (interrupt, kill or close)."""
        cls = type(wait)
        timer = self._timer
        if cls is Hold:
            if timer is None:
                wait.resource._purge_waiter(self)
            else:
                # Holding: the unit stays in ``_held`` and is released
                # when the exception reaches the generator.
                self.sim.cancel(timer)
        elif cls is Store:
            if timer is None:
                wait._purge_getter(self)
            else:
                # The item is in flight: it goes back to the store, and
                # the wake-up still runs where it was scheduled, as a
                # no-op.
                item = timer[ARGS][0]
                timer[CALLBACK] = self._stale_wakeup
                timer[ARGS] = ()
                wait._reclaim(item)
        elif cls is Timeout:
            self.sim.cancel(timer)
        elif cls is Resource:
            if timer is None:
                wait._purge_waiter(self)
            else:
                # Granted: the unit goes back at the strike, and the
                # wake-up still runs where it was scheduled, as a no-op.
                timer[CALLBACK] = self._stale_wakeup
                timer[ARGS] = ()
                wait.release()
        else:
            wait.abandon()

    def _stale_wakeup(self) -> None:
        """A ``Store`` hand-off or ``request()`` grant whose process was
        torn down before it ran."""

    def _fail(self, exc: BaseException) -> None:
        # Record the failure on the completion event so waiters see it; if
        # nobody is waiting, escalate out of the event loop rather than
        # silently swallowing a firmware bug.
        had_waiters = bool(self.completion_event._callbacks)
        self.completion_event.fail(exc)
        if not had_waiters:
            raise exc

    def _wait_on(self, waitable: Any) -> None:
        """Suspend on a waitable the process is not the record of."""
        if isinstance(waitable, (SimEvent, Process)):
            handle = _WaitHandle(self)
            self._current_wait = handle
            waitable._subscribe(handle)
        else:
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

        The interrupted wait is abandoned: its timer is cancelled, a
        queued getter, hold or request is purged, its event subscription
        removed, and an item or unit already in flight to it is handed
        back to its owner (see :meth:`_abandon`) -- so a stale wakeup
        can neither resume the process nor lose an item.
        """
        if not self.alive:
            return
        wait = self._current_wait
        if wait is not None:
            self._current_wait = None
            self._abandon(wait)
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
            self._abandon(wait)
        self.sim.schedule(
            0.0, self._advance, None, ProcessKilled(), priority=PRIORITY_HIGH
        )

    def close(self) -> None:
        """End the process now, with no event (``Cluster.close``): the
        wait is abandoned as on :meth:`kill`, the completion event is
        marked fired without waking anyone, the generator is closed."""
        wait, self._current_wait = self._current_wait, None
        if wait is not None:
            self._abandon(wait)
        held, self._held = self._held, None
        if held is not None:
            held.release()
        self.completion_event._triggered = True
        self.completion_event._callbacks = None
        self._generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
