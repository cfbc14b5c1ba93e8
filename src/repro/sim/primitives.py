"""Waitables and synchronization primitives for simulation processes.

Everything a :class:`~repro.sim.process.Process` can ``yield`` is defined
here (plus ``Process`` itself, which is also waitable).  A process waits
on one waitable at a time, as each of the MCP's state machines waits on
one work queue, the LANai or a DMA.

The four waits of the packet path -- a :class:`Timeout`, a
:class:`Hold`, a :meth:`Store.get` and a :meth:`Resource.request` --
keep no state of their own: the waiting process is their wait record.
A ``Timeout`` and a ``Hold`` are plain descriptors (a ``Hold`` may be
built once and yielded by any number of processes), ``Store.get()``
returns the store itself and ``Resource.request()`` the resource, and
their wake-up is the process's own ``_advance``.  A Store queues its
blocked getters, and a Resource its queued holds and requests, as
processes.

The one other wait is a process join, ``yield process``; a process is
its own completion, and the join's record is a per-suspension
``repro.sim.process._WaitHandle`` (see that module).

Abandonment protocol (the lost-wakeup fix): tearing a wait down on
interrupt/kill *actively* releases what it claimed -- pending timers are
cancelled, queued getters, holds, requests and joins are purged, and an
item or unit already in flight to the dead waiter is handed back to its
owner (``Store`` re-queues the item, ``Resource`` re-releases the unit)
instead of vanishing.  See ``docs/engine.md`` for the full semantics.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Generic, Optional, TypeVar

from repro.sim.engine import PRIORITY_HIGH, PRIORITY_NORMAL, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

T = TypeVar("T")

#: Arguments of a plain resume, ``Process._advance(None, None)``: one
#: shared tuple, which no wake-up ever mutates.
_RESUME = (None, None)


class Interrupted(Exception):
    """Raised inside a process when another process interrupts its wait."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Waitable that fires after a fixed simulated delay.

    ``yield Timeout(5.0)`` suspends the yielding process for 5 us.  The
    resume value is the delay itself (rarely useful, but handy in tests).
    The waiting process schedules its own wake-up and keeps the engine
    entry, so an abandoned sleep cancels the timer outright.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Store(Generic[T]):
    """Unbounded-or-bounded FIFO queue with blocking ``get``.

    Models hardware/firmware queues: token queues between host and NIC,
    per-connection send queues, receive-event queues.  ``put`` succeeds
    immediately while below capacity (and raises when a bounded store
    overflows -- hardware queues in GM are flow-controlled by tokens, so an
    overflow is a protocol bug we want to surface loudly, not mask).

    ``yield store.get()`` takes the oldest item, or blocks the process
    until a ``put``.  A blocked getter is queued as its process, and the
    hand-off schedules that process's wake-up with the item.

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
        self._getters: Deque["Process"] = deque()
        #: Deepest backlog seen; a queue-depth high-water mark for metrics.
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (read-only view for tests/traces)."""
        return tuple(self._items)

    def put(self, item: T) -> None:
        """Enqueue ``item``; hands it to the oldest blocked getter if any.

        The hand-off schedules the getter's wake-up at the current
        instant with high priority, so it observes the queue as the
        putter left it; the getter keeps the entry in case it is torn
        down before the wake-up runs.
        """
        if self._getters:
            getter = self._getters.popleft()
            # ``sim.schedule(0.0, getter._advance, item, None,
            # priority=PRIORITY_HIGH)``, pushed in place.
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            getter._timer = entry = [
                sim.now, PRIORITY_HIGH, seq, getter._advance, (item, None),
            ]
            heappush(sim._heap, entry)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise OverflowError(
                f"store {self.name!r} overflow (capacity={self.capacity}); "
                "flow control violated"
            )
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def get(self) -> "Store[T]":
        """The waitable of a blocking get: ``item = yield store.get()``.

        It is the store itself, so a get allocates nothing; the item is
        taken (FIFO) when the process yields it.
        """
        return self

    def try_get(self) -> Optional[T]:
        """Non-blocking get: pop and return an item, or None if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek(self) -> Optional[T]:
        """The next item without consuming it."""
        return self._items[0] if self._items else None

    def discard(self, predicate: Callable[[T], bool]) -> None:
        """Drop every queued item ``predicate`` holds for."""
        self._items = deque(item for item in self._items if not predicate(item))

    # -- abandonment protocol ------------------------------------------
    def _purge_getter(self, process: "Process") -> None:
        """A blocked getter's process died before any item arrived."""
        try:
            self._getters.remove(process)
        except ValueError:  # pragma: no cover - already delivered/purged
            pass

    def _reclaim(self, item: T) -> None:
        """An item was in flight to a getter that died: re-deliver it.

        The lost delivery was the oldest claim on the queue, so the item
        goes to the next blocked getter, or back to the *head* of the
        item queue ahead of anything enqueued since.
        """
        if self._getters:
            self.put(item)
            return
        self._items.appendleft(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)


class Resource:
    """Capacity-limited resource with FIFO grant order.

    Models the NIC processor (capacity 1, shared by the four MCP state
    machines), the PCI bus (shared by the SDMA and RDMA engines), the
    host CPU and the NIC's SRAM transmit and receive buffer pools.  A
    timed charge is one yield::

        yield resource.hold(duration)   # acquire, hold duration us, release

    and an open-ended claim is a request/release pair::

        yield resource.request()        # granted when capacity available
        ...                             # hold
        resource.release()

    ``try_request()`` is the claim that never waits (the NIC's receive
    path, which cannot stall the wire).

    Both kinds of waiter share one FIFO queue, as their processes.  A
    hold is granted inline (see :class:`Hold`); a request is granted by
    scheduling its process's wake-up.  Interrupt/kill safe: a waiter
    that dies while queued is purged, a request unit already granted to
    a dying waiter is released at the strike (handed to the next
    waiter), and a dying holder's unit is released as the exception
    reaches it -- capacity can neither leak nor be double-released.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        #: Processes queued for a unit, by ``Hold`` or ``request()``.
        self._waiters: Deque["Process"] = deque()
        #: Cumulative busy time integral for utilization accounting.
        self._busy_time = 0.0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        """Units of capacity currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Waiters (requests and holds) queued for capacity."""
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

    def request(self) -> "Resource":
        """The waitable of an open-ended claim: ``yield resource.request()``.

        It is the resource itself, so a claim allocates nothing; the
        unit is taken (FIFO) when the process yields it and stays
        claimed until ``release()``.
        """
        return self

    def try_request(self) -> bool:
        """Claim a unit if one is free and nobody is queued; never waits."""
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return a unit of capacity; grants the oldest waiter if any."""
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter (_in_use
            # unchanged) and push its wake-up, as ``Process._advance``
            # does for a unit free at once: a request's this instant, a
            # hold's end event ``duration`` us later.
            waiter = self._waiters.popleft()
            wait = waiter._current_wait
            sim = self.sim
            if type(wait) is Resource:
                when, priority = sim.now, PRIORITY_HIGH
            else:
                waiter._held = self
                if wait.on_grant is not None:
                    wait.on_grant()
                when, priority = sim.now + wait.duration, PRIORITY_NORMAL
            sim._seq = seq = sim._seq + 1
            waiter._timer = entry = [when, priority, seq, waiter._advance, _RESUME]
            heappush(sim._heap, entry)
        else:
            # _account() written out: every charge ends here.
            now = self.sim.now
            self._busy_time += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use - 1

    # -- abandonment protocol ------------------------------------------
    def _purge_waiter(self, process: "Process") -> None:
        """A queued waiter's process died before being granted."""
        try:
            self._waiters.remove(process)
        except ValueError:  # pragma: no cover - already granted/purged
            pass

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
    """Waitable of :meth:`Resource.hold`: charge ``duration`` us of one
    unit of ``resource``.

    A hold is an immutable descriptor -- nothing in it changes when a
    process yields it -- so one hold can be built once and yielded by
    any number of processes, concurrently too (a :class:`HoldTable`
    keeps one per LANai operation or DMA size).  The yielding process
    is the wait record: it is queued on the resource or holds a unit.

    The grant is inline: the moment a unit is free for the process --
    when it yields the hold, or in the ``release()`` that hands it the
    unit -- its end event is scheduled ``duration`` us later, right
    there.  The end event resumes the process, which first releases the
    unit through ``Resource.release()``.  That is one event per charge,
    at the same grant order and release instants as a
    request/timeout/release sequence, which costs two (the grant resume
    and the timeout).

    ``on_grant`` is an internal hook called at the grant instant, before
    the end event is scheduled; the DMA engines use it to time bus waits.

    Interrupt or kill tears the charge down according to its state: a
    queued hold is purged; a holding one has its end event cancelled and
    keeps the unit until the exception is delivered to the process,
    which releases it first -- what the ``finally`` of a
    request/timeout/release sequence does.
    """

    __slots__ = ("resource", "duration", "on_grant")

    def __init__(
        self,
        resource: Resource,
        duration: float,
        on_grant: Optional[Callable[[], None]] = None,
    ) -> None:
        self.resource = resource
        self.duration = duration
        self.on_grant = on_grant

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hold({self.resource.name!r}, {self.duration})"


class HoldTable(dict):
    """``key -> Hold`` of one unit of ``resource``, each built on the
    first lookup of its key and shared by every later one.

    A charge whose duration takes few values -- a LANai operation, a DMA
    of a given size -- is then a dict subscript, ``yield
    table[key]``, which runs no Python code once the hold exists.  The
    hold's duration is ``duration_of(key)``, or the key itself.
    """

    __slots__ = ("resource", "duration_of")

    def __init__(
        self,
        resource: Resource,
        duration_of: Optional[Callable[[Any], float]] = None,
    ) -> None:
        super().__init__()
        self.resource = resource
        self.duration_of = duration_of

    def __missing__(self, key: Any) -> Hold:
        duration = key if self.duration_of is None else self.duration_of(key)
        hold = self[key] = Hold(self.resource, duration)
        return hold
