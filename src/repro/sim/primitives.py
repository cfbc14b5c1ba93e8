"""Waitables and synchronization primitives for simulation processes.

Everything a :class:`~repro.sim.process.Process` can ``yield`` is defined
here (plus ``Process`` itself, which is also waitable).  A process waits
on one waitable at a time, as each of the MCP's state machines waits on
one work queue, the LANai or a DMA.  The protocol is tiny: a
:class:`Timeout` or :class:`SimEvent` exposes ``_subscribe(handle)``,
which arranges for ``handle._resume(value)`` (a timeout) or
``handle._deliver(value, exc)`` (an event) to be called exactly once
when it fires.  The two waits of the packet path, a
:class:`Hold` and a :meth:`Store.get`, skip it: each is its own wait
record (``process``, ``active``, ``abandon()``), so a process waiting on
one allocates no wait handle and its wake-up is a method of the
waitable itself.

Abandonment protocol (the lost-wakeup fix): the handle a process waits
through records what it subscribed to, and tearing a wait down on
interrupt/kill *actively* releases it -- pending timers are cancelled,
event subscriptions removed, and a value already in flight to the dead
waiter is handed back to its owner (``Store`` re-queues the item,
``Resource`` re-releases the unit) instead of vanishing.  See
``docs/engine.md`` for the full semantics.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Generic, List, Optional, TypeVar

from repro.sim.engine import PRIORITY_HIGH, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

T = TypeVar("T")


class Interrupted(Exception):
    """Raised inside a process when another process interrupts its wait."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Waitable that fires after a fixed simulated delay.

    ``yield Timeout(5.0)`` suspends the yielding process for 5 us.  The
    resume value is the delay itself (rarely useful, but handy in tests).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def _subscribe(self, handle: Any) -> None:
        # Remember the engine entry so abandoning the wait cancels the
        # timer outright instead of letting it fire into a dead flag.
        handle.timer = handle.sim.schedule(self.delay, handle._resume, self.delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class SimEvent(Generic[T]):
    """One-shot event: processes wait on it; someone succeeds or fails it.

    Unlike a callback list, a ``SimEvent`` remembers its outcome, so a
    process that waits *after* the event fired resumes immediately at the
    current instant (with high priority, preserving causality).

    Two owner hooks support the abandonment protocol:

    * ``abandon_hook`` -- called with the event when its (sole) waiter
      abandons *before* the event fires; ``Store``/``Resource`` use it to
      purge the event from their wait queues.
    * ``_salvage`` -- called with the fired value when the waiter
      abandons *after* the event fired but before delivery landed (the
      value is in flight to a dead handle); owners reclaim it so items
      and capacity units are never lost to interrupt/kill races.
    """

    __slots__ = (
        "sim",
        "_callbacks",
        "_triggered",
        "_value",
        "_exception",
        "name",
        "_salvage",
        "abandon_hook",
    )

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        # Lazy: most events fire with exactly zero or one waiter, so the
        # list is only materialized when someone actually subscribes.
        self._callbacks: Optional[
            List[Callable[[Any, Optional[BaseException]], None]]
        ] = None
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._salvage: Optional[Callable[[Any], None]] = None
        self.abandon_hook: Optional[Callable[["SimEvent"], None]] = None

    # -- firing --------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event already fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The fired value (raises the failure exception if failed)."""
        if not self._triggered:
            raise RuntimeError(f"event {self.name!r} has not fired yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: T = None) -> "SimEvent[T]":
        """Fire the event with ``value``.  Waiters resume this instant."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "SimEvent[T]":
        """Fire the event with an exception; waiters have it raised."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        schedule = self.sim.schedule
        value = self._value
        exception = self._exception
        for cb in callbacks:
            # Deliver at the current instant but before ordinary events so
            # that a waiter observes the world exactly as the firer left it.
            schedule(0.0, cb, value, exception, priority=PRIORITY_HIGH)

    # -- waiting -------------------------------------------------------
    def _subscribe(self, handle: Any) -> None:
        deliver = handle._deliver
        if self._triggered:
            self.sim.schedule(
                0.0, deliver, self._value, self._exception, priority=PRIORITY_HIGH
            )
        elif self._callbacks is None:
            self._callbacks = [deliver]
        else:
            self._callbacks.append(deliver)
        handle.event = self

    def _waiter_abandoned(self, handle: Any) -> None:
        """The handle subscribed via ``_subscribe`` was abandoned:
        unsubscribe it, then drop its claim."""
        if not self._triggered:
            self._callbacks.remove(handle._deliver)
        self._drop_claim()

    def _drop_claim(self) -> None:
        """A waiter on this event gave up.

        Before the event fires, its owner (Store/Resource) is told to
        purge the queued claim, so a later ``put``/``release`` goes to a
        live waiter.  After it fired, the value is in flight to a dead
        waiter: it goes back to the owner (once) through ``_salvage``, so
        an item or capacity grant is reclaimed, never lost.  Failures
        need no salvage -- there is no item or unit in an exception.
        """
        if self._triggered:
            salvage = self._salvage
            if salvage is not None and self._exception is None:
                self._salvage = None
                salvage(self._value)
            return
        hook = self.abandon_hook
        if hook is not None:
            self.abandon_hook = None
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Store(Generic[T]):
    """Unbounded-or-bounded FIFO queue with blocking ``get``.

    Models hardware/firmware queues: token queues between host and NIC,
    per-connection send queues, receive-event queues.  ``put`` succeeds
    immediately while below capacity (and raises when a bounded store
    overflows -- hardware queues in GM are flow-controlled by tokens, so an
    overflow is a protocol bug we want to surface loudly, not mask).

    Interrupt/kill safe: a getter whose process dies while blocked is
    purged from the wait queue, and an item already handed to a dying
    getter is reclaimed -- re-delivered to the next live getter or put
    back at the head of the queue.  Items are never silently lost.
    """

    def __init__(
        self, sim: Simulator, capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._get_name = f"get:{name}"
        #: Deepest backlog seen; a queue-depth high-water mark for metrics.
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (read-only view for tests/traces)."""
        return tuple(self._items)

    def put(self, item: T) -> None:
        """Enqueue ``item``; wakes the oldest blocked getter if any.

        The hand-off fires the getter in place -- what
        ``getter.succeed(item)`` does for a ``_Get``, which has no
        subscribers: mark it fired and, if its process waits on it,
        schedule :meth:`_Get._wake` where ``_dispatch`` would.
        """
        if self._getters:
            getter = self._getters.popleft()
            getter._triggered = True
            getter._value = item
            if getter.active:
                self.sim.schedule(0.0, getter._wake, priority=PRIORITY_HIGH)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise OverflowError(
                f"store {self.name!r} overflow (capacity={self.capacity}); "
                "flow control violated"
            )
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def get(self) -> SimEvent[T]:
        """Return a waitable that yields the next item (FIFO)."""
        ev: _Get[T] = _Get(self)
        if self._items:
            # Fired before anyone can subscribe: nothing to dispatch.
            ev._triggered = True
            ev._value = self._items.popleft()
        else:
            ev.abandon_hook = self._purge_getter
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[T]:
        """Non-blocking get: pop and return an item, or None if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek(self) -> Optional[T]:
        """The next item without consuming it."""
        return self._items[0] if self._items else None

    # -- abandonment protocol ------------------------------------------
    def _purge_getter(self, ev: SimEvent) -> None:
        """A blocked getter's process died before any item arrived."""
        try:
            self._getters.remove(ev)
        except ValueError:  # pragma: no cover - already delivered/purged
            pass

    def _reclaim(self, item: T) -> None:
        """An item was in flight to a getter that died: re-deliver it.

        The lost delivery was the oldest claim on the queue, so the item
        goes to the next blocked getter, or back to the *head* of the
        item queue ahead of anything enqueued since.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._items.appendleft(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)


class _Get(SimEvent[T]):
    """The event :meth:`Store.get` returns, and the wait record of a
    process that yields it.

    A process yielding a get waits on it directly
    (``Process._advance``): no wait handle, and no callback.  The
    ``put`` that fires it schedules :meth:`_wake` at the point
    ``SimEvent._dispatch`` schedules a subscriber, and a get already
    fired schedules it at once, as ``SimEvent._subscribe`` does.
    """

    __slots__ = ("process", "active")

    def __init__(self, store: "Store[T]") -> None:
        # SimEvent.__init__ written out: a get is made per packet hop.
        self.sim = store.sim
        self.name = store._get_name
        self._callbacks = None
        self._triggered = False
        self._value = None
        self._exception = None
        self._salvage = store._reclaim
        self.abandon_hook = None
        self.active = False

    def _wait(self, process: "Process") -> None:
        """``process`` yielded this get: wake it when (or as) it fires."""
        self.process = process
        self.active = True
        if self._triggered:
            self.sim.schedule(0.0, self._wake, priority=PRIORITY_HIGH)

    def _dispatch(self) -> None:
        if self.active:
            self.sim.schedule(0.0, self._wake, priority=PRIORITY_HIGH)

    def _wake(self) -> None:
        """Resume the waiting process with the item (if still waiting)."""
        if self.active:
            self.active = False
            self.process._advance(self._value, self._exception)

    def abandon(self) -> None:
        """The waiting process was interrupted or killed: purge the
        queued getter, or salvage an item already in flight to it."""
        self.active = False
        self._drop_claim()


class Resource:
    """Capacity-limited resource with FIFO grant order.

    Models the NIC processor (capacity 1, shared by the four MCP state
    machines), the PCI bus (shared by the SDMA and RDMA engines) and the
    host CPU.  A timed charge is one yield::

        yield resource.hold(duration)   # acquire, hold duration us, release

    and an open-ended claim is a request/release pair::

        yield resource.request()        # granted when capacity available
        ...                             # hold
        resource.release()

    Both kinds of waiter share one FIFO queue.  A hold is granted inline
    (see :class:`Hold`); a request is granted by firing its event.
    Interrupt/kill safe: a waiter that dies while queued is purged, a
    request unit already granted to a dying waiter is released back
    (handed to the next waiter), and a dying holder's unit is released
    as the exception reaches it -- capacity can neither leak nor be
    double-released.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[SimEvent] = deque()
        self._req_name = f"req:{name}"
        #: Cumulative busy time integral for utilization accounting.
        self._busy_time = 0.0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        """Units of capacity currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for capacity."""
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Average fraction of capacity in use from ``since`` to now."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    @property
    def busy_us(self) -> float:
        """Capacity-weighted busy-time integral in simulated microseconds."""
        self._account()
        return self._busy_time

    def request(self) -> SimEvent[None]:
        """Return a waitable granted when a unit of capacity is free."""
        ev: SimEvent[None] = SimEvent(self.sim, name=self._req_name)
        ev._salvage = self._reclaim_grant
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            ev.succeed(None)
        else:
            ev.abandon_hook = self._purge_request
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a unit of capacity; grants the oldest waiter if any."""
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter: _in_use unchanged.
            self._waiters.popleft().succeed(None)
        else:
            # _account() written out: every charge ends here.
            now = self.sim.now
            self._busy_time += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use - 1

    # -- abandonment protocol ------------------------------------------
    def _purge_request(self, ev: SimEvent) -> None:
        """A queued requester's process died before being granted."""
        try:
            self._waiters.remove(ev)
        except ValueError:  # pragma: no cover - already granted/purged
            pass

    def _reclaim_grant(self, _value: None) -> None:
        """A unit was in flight to a requester that died: release it.

        The grant kept the unit accounted in ``_in_use`` (direct handoff
        never decrements), so reclaiming is exactly a ``release``: the
        unit goes to the next waiter or back to the free pool.
        """
        self.release()

    def hold(self, duration: float) -> "Hold":
        """Waitable that acquires a unit, holds it ``duration`` us and
        releases it: ``yield resource.hold(duration)``.

        The process is resumed once, after the release.  See :class:`Hold`
        for the one event this schedules.
        """
        if duration < 0:
            raise ValueError(f"hold duration must be >= 0, got {duration}")
        return Hold(self, duration)


class Hold:
    """Waitable of :meth:`Resource.hold` (single use), and the wait
    record of the process that yields it: no wait handle is allocated.

    A hold is either queued or holding.  The grant is inline: the moment
    a unit is free for it -- in :meth:`_wait`, or in the ``succeed()``
    that ``release()`` calls to hand it the unit -- the hold schedules
    its end event ``duration`` us later, right there.  The end event
    releases the unit through ``Resource.release()`` and then resumes
    the process.  That is one event per charge, at the same grant order
    and release instants as a request/timeout/release sequence, which
    costs two (the grant resume and the timeout).

    ``on_grant`` is an internal hook called at the grant instant, before
    the end event is scheduled; the DMA engines use it to time bus waits.

    Interrupt or kill tears the charge down according to its state: a
    queued hold is purged; a holding one has its end event cancelled and
    keeps the unit until the exception is delivered to the process,
    which releases it first -- what the ``finally`` of a
    request/timeout/release sequence does.
    """

    __slots__ = ("resource", "duration", "on_grant", "timer", "process", "active")

    def __init__(
        self,
        resource: Resource,
        duration: float,
        on_grant: Optional[Callable[[], None]] = None,
    ) -> None:
        self.resource = resource
        self.duration = duration
        self.on_grant = on_grant
        #: The end event once granted; None while queued.
        self.timer: Any = None

    def _wait(self, process: "Process") -> None:
        """``process`` yielded this hold: grant it now, or queue it."""
        self.process = process
        self.active = True
        resource = self.resource
        in_use = resource._in_use
        if in_use < resource.capacity and not resource._waiters:
            sim = resource.sim
            if in_use:
                resource._account()
            else:
                # Idle: the busy integral grows by 0 * dt, so only the
                # accounting instant moves.
                resource._last_change = sim.now
            resource._in_use = in_use + 1
            if self.on_grant is not None:
                self.on_grant()
            self.timer = sim.schedule(self.duration, self._done)
        else:
            resource._waiters.append(self)

    def succeed(self, _value: None = None) -> None:
        """A queued hold is granted (``Resource.release`` calls this on
        queued holds as on queued request events): schedule the end
        event, as :meth:`_wait` does for a hold granted at once."""
        if self.on_grant is not None:
            self.on_grant()
        self.timer = self.resource.sim.schedule(self.duration, self._done)

    def _done(self) -> None:
        """The end event, the only event a hold schedules: release the
        unit, then resume the process."""
        if self.active:
            self.active = False
            self.resource.release()
            self.process._advance(None, None)

    def abandon(self) -> None:
        """The waiting process was interrupted or killed."""
        self.active = False
        timer = self.timer
        if timer is None:
            self.resource._purge_request(self)
        else:
            # The unit is released when the exception reaches the
            # generator.
            self.resource.sim.cancel(timer)
            self.process._held = self.resource

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hold({self.resource.name!r}, {self.duration})"
