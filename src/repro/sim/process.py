"""Generator-coroutine processes.

A process wraps a Python generator.  Each ``yield`` hands the engine one
*waitable* (Timeout, Hold, a ``Store.get()``, a ``Resource.request()``,
another Process); the process is resumed with the waitable's value, or
has an exception thrown into it when the waitable fails.  A process is
its own completion: ``return value`` inside the generator (or a failure)
records the outcome on the process and wakes the processes joined on
it.

Stale-wakeup safety: every suspension has one *wait record*.  For the
four waits of the packet path -- a :class:`~repro.sim.primitives.Timeout`,
a :class:`~repro.sim.primitives.Hold`, a ``Store.get()`` and a
``Resource.request()`` -- the process itself is the record: it keeps
the engine entry of its wake-up (``_timer``) and the unit a hold was
granted (``_held``), a Store or Resource queues it as itself, and the
wake-up calls :meth:`Process._advance` directly, which releases a held
unit before it resumes the generator.  A join (``yield process``) is
the one wait with a record of its own, a fresh :class:`_WaitHandle`
queued on the joined process.  If the process is interrupted (or
killed) while suspended, its wait is abandoned, so nothing that fires
later can resume the process into the wrong wait.  Abandonment is
*active*, not just a dead flag: a pending timer is cancelled, a queued
getter, hold, request or join is purged, and an item or unit already in
flight to the process is handed back to its owner (Store/Resource)
rather than lost -- see ``docs/engine.md`` for the full cancellation
semantics.
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
    Store,
    Timeout,
)


class ProcessKilled(Exception):
    """Raised inside a process when :meth:`Process.kill` is called."""


class _WaitHandle:
    """The record of a join: ``process`` waits for ``event``, the joined
    process, to end.

    The joined process keeps the handle among its joiners until its end
    schedules ``_deliver``, which resumes the waiter only while the
    handle is its *current* wait; ``abandon()`` (interrupt or kill)
    leaves the joiners, or lets a delivery already scheduled run as a
    no-op.  The join is the one wait not recorded on the waiting process
    itself: perfbench's profiler labels its delivery by
    ``_WaitHandle.process``.
    """

    __slots__ = ("process", "event")

    def __init__(self, process: "Process", event: "Process") -> None:
        self.process = process
        self.event = event

    def _deliver(self, value: Any, exc: Optional[BaseException]) -> None:
        """The joined process ended: resume with its value, or throw the
        exception it failed with (its value is then None)."""
        process = self.process
        if process._current_wait is self:
            # Delivered: no longer a wait for _advance to tear down.
            process._current_wait = None
            process._advance(value, exc)

    def abandon(self) -> None:
        """Leave the joiners of a still-running process."""
        if not self.event._done:
            self.event._joiners.remove(self)


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
        #: The outcome, set when the generator returns, fails or is closed.
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Handles of the joins on this process, built on the first join.
        self._joiners: Optional[list] = None
        #: What the current suspension waits on -- a ``Timeout``,
        #: ``Hold``, ``Store`` or ``Resource`` (the process is the
        #: record), or a join's ``_WaitHandle`` -- None while running or
        #: once delivered.
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
        heappush(sim._heap, [sim.now, PRIORITY_HIGH, seq, self._advance, _RESUME])

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the process has not yet completed."""
        return not self._done

    @property
    def result(self) -> Any:
        """Return value of the generator (raises if failed / not done)."""
        if not self._done:
            raise RuntimeError(f"process {self.name!r} has not finished")
        if self._exception is not None:
            raise self._exception
        return self._value

    # ------------------------------------------------------------------
    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Step the generator once with a value or an exception.

        This is the wake-up of every wait: a ``Timeout`` or ``Hold``
        end event, a ``Store`` hand-off, a ``request()`` grant, a
        join's delivery, an interrupt or kill.  Only the last two bring
        an exception while a wait is pending.
        """
        if self._done:
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
            self._finish(stop.value, None)
            return
        except ProcessKilled:
            if self._killed:
                self._finish(None, None)
                return
            self._finish(None, ProcessKilled("ProcessKilled raised without kill()"))
            return
        except BaseException as err:  # noqa: BLE001 - deliberately broad
            self._finish(None, err)
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
        elif cls is Process:
            # A join: the handle waits among the joined process's
            # joiners, or is delivered this instant if it has ended.
            handle = self._current_wait = _WaitHandle(self, waitable)
            if waitable._done:
                sim.schedule(
                    0.0,
                    handle._deliver,
                    waitable._value,
                    waitable._exception,
                    priority=PRIORITY_HIGH,
                )
            elif waitable._joiners is None:
                waitable._joiners = [handle]
            else:
                waitable._joiners.append(handle)
            return
        else:
            sim.schedule(
                0.0,
                self._advance,
                None,
                TypeError(f"process {self.name!r} yielded non-waitable {waitable!r}"),
                priority=PRIORITY_HIGH,
            )
            return
        sim._seq = seq = sim._seq + 1
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

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        """Record the outcome and wake the joiners at this instant, in
        join order, before ordinary events: each sees the world exactly
        as this process left it.  A failure nobody joined escalates out
        of the event loop rather than silently swallowing a firmware
        bug."""
        self._done = True
        self._value = value
        self._exception = exc
        joiners, self._joiners = self._joiners, None
        if joiners:
            schedule = self.sim.schedule
            for handle in joiners:
                schedule(0.0, handle._deliver, value, exc, priority=PRIORITY_HIGH)
        elif exc is not None:
            raise exc

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at this instant.

        The interrupted wait is abandoned: its timer is cancelled, a
        queued getter, hold, request or join is purged, and an item or
        unit already in flight to it is handed back to its owner (see
        :meth:`_abandon`) -- so a stale wakeup can neither resume the
        process nor lose an item.
        """
        if self._done:
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
        if self._done or self._killed:
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
        wait is abandoned as on :meth:`kill`, the process is marked done
        without waking its joiners, the generator is closed."""
        wait, self._current_wait = self._current_wait, None
        if wait is not None:
            self._abandon(wait)
        held, self._held = self._held, None
        if held is not None:
            held.release()
        self._done = True
        self._joiners = None
        self._generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
