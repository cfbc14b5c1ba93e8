"""The simulation event loop.

The engine is one binary heap plus a timer wheel:

* **Dispatch heap** (``_heap``) -- every scheduled entry is pushed onto
  one binary heap, and the run loop pops its head.
* **Timer wheel** -- ``schedule_timer`` parks far-future timers (the
  retransmission pattern: armed constantly, cancelled almost always) in
  coarse wheel buckets that never touch the heap.  Cancelling a parked
  timer is O(1), and the dead timer is dropped when its bucket is
  compacted or flushed, so cancelled timers cause *zero* churn in the
  dispatch path.  Before the head is dispatched, every wheel bucket
  whose lower bound is at or before the head's time is flushed onto the
  heap, so the head is always the global minimum.

Events execute in exactly ``(time, priority, seq)`` order, identical to
the classic single-heap engine -- sequence numbers are allocated at
schedule time whether an entry is pushed or parked, so traces are
bit-identical (see ``tests/test_engine_trace_regression``).

Hot-path representation: a queue entry is a plain ``list`` ``[time,
priority, seq, callback, args]`` (a timer parked in the wheel carries
its wheel key as a sixth item), and :meth:`Simulator.schedule` returns
the entry itself as the handle to pass to :meth:`Simulator.cancel`.
Heap comparisons run entirely in C (floats/ints compared element-wise;
``seq`` is unique, so comparison never reaches the callback), and
CPython specialises subscripts and stores only for an exact ``list``,
which a ``list`` subclass or a ``__slots__`` object would forgo.

Time is a ``float`` in **microseconds** throughout this project; the
Myrinet/GM latencies the paper reports are all in the 1--250 us range, so
microseconds keep the numbers legible in traces and results tables.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.sim.metrics import MetricsRegistry
from repro.telemetry import DEFAULT_SAMPLE_US, PROBE_KINDS, Probe, Telemetry

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for "urgent" bookkeeping that must run before normal events at
#: the same instant (e.g. waking a process before another samples a queue).
PRIORITY_HIGH = -1
#: Priority for events that must run after all normal activity at an instant.
PRIORITY_LOW = 1

#: Timer-wheel bucket width (coarse: timers batch by ~granule).  A power
#: of two, so the bucket key ``t // WHEEL_GRANULE`` is exact float
#: arithmetic; keys are floats used as dict keys (no int() round-trip).
WHEEL_GRANULE = 256.0


_INF = float("inf")

#: Layout of a queue entry.  ``schedule*`` return the entry itself; the
#: hot paths spell these indices as literals.  ``callback`` is None once
#: the entry was cancelled or ran, and ``WHEEL_KEY`` exists only while a
#: timer is parked in the wheel.
TIME, PRIORITY, SEQ, CALLBACK, ARGS, WHEEL_KEY = range(6)


def _callback_owner(callback: Callable[..., None]) -> str:
    """Profiling label for a callback: its bound object, else its name.

    A process's own wake-ups (the end of a ``Hold`` or ``Timeout``, a
    ``Store`` hand-off) are ``Process._advance`` itself; a wait handle
    wakes the process waiting on it, so its callbacks are charged to
    that process too.
    """
    obj = getattr(callback, "__self__", None)
    if obj is not None:
        obj = getattr(obj, "process", None) or obj
        name = getattr(obj, "name", "")
        cls = type(obj).__name__
        return f"{cls}:{name}" if name else cls
    return getattr(callback, "__qualname__", repr(callback))


class Simulator:
    """Owns the virtual clock, the dispatch heap and the timer wheel.

    Parameters
    ----------
    start_time:
        Initial clock value in microseconds.
    metrics_enabled:
        Build the attached :class:`~repro.sim.metrics.MetricsRegistry`
        live (components registering into it record for real) instead of
        as a null registry.
    profile:
        Enable the per-callback-owner wall-clock profiler (see
        :meth:`profile_stats`).  Off by default -- when off, the dispatch
        loop pays one untaken branch per event for it.

    Notes
    -----
    The simulator is single-threaded and re-entrant only in the sense that
    callbacks may schedule further events.  ``run()`` drains the queues
    until a stop condition.  See :doc:`docs/engine.md` for the scheduler
    architecture and its diagnostics.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        metrics_enabled: bool = False,
        profile: bool = False,
        telemetry_enabled: bool = False,
        telemetry_sample_us: float = DEFAULT_SAMPLE_US,
    ) -> None:
        self.now: float = start_time
        self._seq: int = 0
        #: Cancelled entries still on the heap: ``cancel()`` adds one and
        #: every pop that skips one takes it off, so the live entries on
        #: the heap are ``len(_heap) - _dead`` and no push counts.
        self._dead: int = 0
        self._running: bool = False
        self._stop_requested: bool = False
        self._heap: List[list] = []
        # Timer wheel: key -> [lb, cap, handles] where lb is the lowest
        # time ever parked there (a lower bound on its live contents,
        # maintained on insert only -- cancellation must stay O(1), so it
        # is conservative, never wrong) and cap is the length at which
        # the handle list is compacted (dead entries dropped in one
        # sweep, amortized O(1) per insert, so cancel-heavy buckets can't
        # build GC-visible garbage mountains while they wait to flush).
        self._wheel: Dict[float, list] = {}
        #: The lowest ``lb`` in the wheel (inf when it is empty): the head
        #: of the heap may be dispatched only while it is below this.
        self._wheel_lo: float = _INF
        #: The entry being (or last) dispatched, or None when every event
        #: at or before ``now`` has run: the engine's position in
        #: ``(time, priority, seq)`` order, read by :meth:`dispatched`.
        self._at: Optional[list] = None
        #: Number of callbacks executed; useful for profiling and for
        #: detecting runaway simulations in tests.
        self.events_executed: int = 0
        #: Every quantity components declare with :meth:`probe`; the
        #: metrics snapshot and the telemetry sampler both read it.
        self.probes: List[Probe] = []
        #: Whether either view is on.  Components declare their probes
        #: (and build their getters) only when it is set.
        self.probing: bool = bool(metrics_enabled or telemetry_enabled)
        #: Registry of this simulation's instruments; its snapshot reads
        #: every probe too.
        self.metrics = MetricsRegistry(
            self, enabled=metrics_enabled, probes=self.probes
        )
        #: Sim-time sampler of every probe.  A null object when
        #: disabled; ``start()`` arms the tick.
        self.telemetry = Telemetry(
            self, enabled=telemetry_enabled, sample_us=telemetry_sample_us,
            probes=self.probes,
        )
        if self.probing:
            # The engine's own activity probe.  ``events_executed`` is
            # batched in the run loop (flushed on exit), so the live
            # signal is the schedule-time sequence counter: events
            # scheduled per simulated microsecond.
            self.probe(
                "engine.events_per_us", lambda: self._seq,
                "counter", "engine", "events/us",
            )
        #: Queue pops that hit a lazily-cancelled entry (the cost of O(1)
        #: :meth:`cancel`); compare against ``events_executed``
        #: for the cancelled-pop ratio.
        self.cancelled_pops: int = 0
        #: Timers cancelled while still parked in the wheel -- reclaimed
        #: without ever touching the dispatch queues (the win the wheel
        #: exists for; these would all have been ``cancelled_pops``).
        self.timers_reclaimed: int = 0
        #: Deepest live pending-event count seen (profiling mode only).
        self.heap_high_water: int = 0
        self._profile = profile
        #: owner -> [events executed, wall-clock seconds].
        self._profile_stats: Dict[str, List[float]] = {}

    def probe(
        self,
        name: str,
        fn: Callable[[], float],
        kind: str = "gauge",
        component: str = "",
        unit: str = "",
    ) -> None:
        """Declare one quantity, read by ``fn``: a level (``gauge``) or a
        monotone total (``counter``).  The metrics snapshot shows it as
        ``name``; telemetry samples it into the series ``name`` of
        ``component`` (a counter as its rate per us, in ``unit``).
        ``name`` shares one namespace with the metrics instruments.
        Components call this only while :attr:`probing` is set."""
        if kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.metrics.claim(name, "probe")
        self.probes.append(Probe(name, fn, kind, component, unit))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` us from now.

        Negative delays are a programming error and raise ``ValueError``;
        zero delays are common and fire at the current instant after any
        already-scheduled same-instant events of equal priority.  Tiny
        negative delays (within ``-1e-9`` us) are treated as zero: chains
        of ``now + dt`` float arithmetic legitimately produce deltas like
        ``-1e-12``, which are rounding noise, not time travel.
        """
        if delay < 0:
            if delay >= -1e-9:
                delay = 0.0
            else:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay})"
                )
        t = self.now + delay
        self._seq = seq = self._seq + 1
        handle = [t, priority, seq, callback, args]
        heappush(self._heap, handle)
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> list:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._seq = seq = self._seq + 1
        handle = [time, priority, seq, callback, args]
        heappush(self._heap, handle)
        return handle

    def schedule_timer(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> list:
        """Schedule a *timer*: semantically identical to :meth:`schedule`
        (same clock, same ``(time, priority, seq)`` ordering, same lazy
        :meth:`cancel`), but optimized for callbacks that are usually
        cancelled before they fire.

        A timer due in a later wheel granule than the clock's parks in
        a coarse wheel bucket instead of the heap; cancellation there is
        O(1), and dead timers are dropped in batches when the bucket is
        compacted or flushed, so the churn of arm/cancel cycles (the NIC
        retransmission pattern) never reaches the hot path.  A timer that
        *does* survive is flushed onto the heap before any later event
        is dispatched and fires in exactly the order :meth:`schedule`
        would have fired it.
        """
        t = self.now + delay
        key = t // WHEEL_GRANULE
        if key <= self.now // WHEEL_GRANULE:
            # Near timer: due within the clock's own granule, too soon
            # for parking to pay, so it goes straight onto the heap (a
            # negative delay lands here too, for schedule() to judge).
            return self.schedule(delay, callback, *args, priority=priority)
        self._seq = seq = self._seq + 1
        # A parked timer is off the heap, so its cancel counts no dead
        # entry; ``pending_events`` folds the wheel in lazily instead.
        handle = [t, priority, seq, callback, args, key]
        if t < self._wheel_lo:
            self._wheel_lo = t
        entry = self._wheel.get(key)
        if entry is None:
            self._wheel[key] = [t, 2048, [handle]]
        else:
            bucket = entry[2]
            bucket.append(handle)
            if t < entry[0]:
                entry[0] = t
            if len(bucket) >= entry[1]:
                self._wheel_compact(entry)
        return handle

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> list:
        """Schedule ``callback(*args)`` at the reserved key ``(time,
        PRIORITY_NORMAL, seq)``, which must not have been passed yet.

        A key is reserved by taking the next ``seq`` (``sim._seq += 1``)
        for an event that may never need to run; the caller keeps the
        key and either places the event there later with this method,
        or asks :meth:`dispatched` whether the engine has already passed
        it -- an event that would only have found nothing to do need
        never be queued (a channel's transmit end, see
        ``network/link.py``).  It fires exactly where :meth:`schedule`
        would have fired it had it been scheduled when ``seq`` was
        reserved.
        """
        handle = [time, PRIORITY_NORMAL, seq, callback, args]
        heappush(self._heap, handle)
        return handle

    def dispatched(self, time: float, seq: int) -> bool:
        """Whether an event at ``(time, PRIORITY_NORMAL, seq)`` would
        already have run: it orders before the entry being dispatched,
        or, outside ``run()``, it is due at or before ``now``.
        """
        at = self._at
        if at is None:
            return time <= self.now
        return [time, PRIORITY_NORMAL, seq] < at

    def cancel(self, handle: list) -> None:
        """Keep a scheduled entry from running.  Idempotent, and a
        no-op once the entry has run or the simulator was closed.

        Cancellation is lazy and O(1): the entry stays where it is and
        is skipped when popped (a ``cancelled_pops``), or, for a timer
        still parked in the wheel, when its bucket is flushed (a
        ``timers_reclaimed``).  The callback and its arguments are
        dropped at once, so a cancelled timer pins nothing until then.
        """
        if handle[CALLBACK] is None:
            return
        handle[CALLBACK] = None
        handle[ARGS] = ()
        if len(handle) > WHEEL_KEY:
            # Still parked: the bucket drops it, the heap never sees it.
            self.timers_reclaimed += 1
        else:
            self._dead += 1

    # ------------------------------------------------------------------
    # Timer wheel internals
    # ------------------------------------------------------------------
    def _wheel_compact(self, entry: list) -> None:
        """Drop a parked bucket's cancelled timers in one sweep.

        Runs when the bucket outgrows its compaction cap; the next cap is
        sized from the surviving live count, so churn-heavy buckets stay
        small while genuinely live-heavy buckets double away from the
        threshold instead of rescanning on every insert.
        """
        bucket = entry[2]
        bucket[:] = [h for h in bucket if h[3] is not None]
        entry[1] = 2 * len(bucket) + 2048

    def _wheel_flush(self, t: float) -> None:
        """Move the live timers of every wheel bucket whose lower bound
        is at or before ``t`` onto the heap; ``_wheel_lo`` becomes the
        lowest bound left.

        Cancelled timers are skipped here in one batched sweep -- a plain
        ``is None`` test per entry, instead of a heap pop each -- which
        is what keeps :meth:`cancel` of a parked timer queue-free.
        """
        wheel = self._wheel
        heap = self._heap
        lo = _INF
        for key, entry in list(wheel.items()):
            lb = entry[0]
            if lb > t:
                if lb < lo:
                    lo = lb
                continue
            del wheel[key]
            for handle in entry[2]:
                if handle[3] is not None:
                    del handle[WHEEL_KEY]
                    heappush(heap, handle)
        self._wheel_lo = lo

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if idle."""
        if self.peek() is None:
            return False
        handle = heappop(self._heap)
        self.now = handle[0]
        self._at = handle
        callback = handle[3]
        args = handle[4]
        handle[3] = None
        handle[4] = None
        self.events_executed += 1
        if self._profile:
            self._dispatch_profiled(callback, args)
        else:
            callback(*args)
        return True

    def _dispatch_profiled(self, callback, args) -> None:
        """Execute one callback under the wall-clock profiler."""
        depth = len(self._heap) - self._dead
        if depth > self.heap_high_water:
            self.heap_high_water = depth
        t0 = time.perf_counter()
        callback(*args)
        wall = time.perf_counter() - t0
        owner = _callback_owner(callback)
        rec = self._profile_stats.get(owner)
        if rec is None:
            self._profile_stats[owner] = [1, wall]
        else:
            rec[0] += 1
            rec[1] += wall

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queues.

        Parameters
        ----------
        until:
            Stop once the clock would pass this instant.  Events scheduled
            exactly at ``until`` are executed.  The clock is advanced to
            ``until`` on return even if the queues empty earlier.
        max_events:
            Safety valve: allow exactly this many callbacks, then raise
            ``RuntimeError`` if a live event at or before ``until``
            remains.  Useful in tests to catch livelock (e.g. a polling
            loop that never yields time).  A run whose queues drain in
            exactly ``max_events`` callbacks completes normally.

        Returns
        -------
        float
            The clock value at return.

        There is one dispatch loop for every mode.  ``events_executed``
        is accumulated in a local and flushed on every exit path
        (exceptions included), so it is exact whenever ``run()`` is not
        on the stack.  A skipped dead entry moves ``cancelled_pops`` and
        the dead-entry count at once, so :attr:`pending_events` is exact
        inside a callback too.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        self._stop_requested = False
        limit = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        profiled = self._profile
        executed = 0
        pop = heappop
        heap = self._heap
        wheel = self._wheel
        try:
            while True:
                if not heap:
                    if not wheel:
                        break
                    self._wheel_flush(self._wheel_lo)
                    continue
                if self._stop_requested:
                    return self.now
                handle = pop(heap)
                callback = handle[3]
                if callback is None:
                    self.cancelled_pops += 1
                    self._dead -= 1
                    continue
                t = handle[0]
                if t >= self._wheel_lo or t > limit or executed == budget:
                    # Not ours to run yet: put it back.  Entries are
                    # totally ordered by (time, priority, seq), so nothing
                    # moves.  Parked timers due by ``t`` go first.
                    heappush(heap, handle)
                    if t >= self._wheel_lo:
                        self._wheel_flush(t)
                        continue
                    if t > limit:
                        break
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}; "
                        "likely livelock"
                    )
                self.now = t
                self._at = handle
                args = handle[4]
                handle[3] = None
                handle[4] = None
                executed += 1
                if profiled:
                    self._dispatch_profiled(callback, args)
                else:
                    callback(*args)
            if until is not None and self.now < until:
                self.now = until
            # Every event at or before the clock has run; a stop() or an
            # error leaves ``_at`` on the last entry dispatched instead.
            self._at = None
            return self.now
        finally:
            self.events_executed += executed
            self._running = False

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain.  Alias of ``run(until=None)``."""
        return self.run(until=None, max_events=max_events)

    def stop(self) -> None:
        """Request that ``run()`` return after the current callback.

        The clock stays at that callback's time, even under ``until``, and
        no ``max_events`` error is raised."""
        self._stop_requested = True

    def close(self) -> None:
        """Drop every pending event unrun, each made inert like an
        executed one, and detach metrics and telemetry.  No counter
        moves (see "Cluster lifecycle" in ``docs/engine.md``)."""
        parked = [entry[2] for entry in self._wheel.values()]
        for queue in (self._heap, *parked):
            for handle in queue:
                handle[3] = handle[4] = None
        self._heap.clear()
        self._wheel.clear()
        self._wheel_lo = _INF
        self._dead = 0
        self.metrics.close()
        self.telemetry.close()
        self.probes.clear()

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiling(self) -> bool:
        """Whether the per-callback-owner wall-clock profiler is active."""
        return self._profile

    def profile_stats(self) -> Dict[str, tuple]:
        """Per-callback-owner ``(events, wall_seconds)``, profiling mode.

        The owner of a bound-method callback is its ``__self__`` object
        (labelled ``TypeName:name`` when the object has a ``name``);
        plain functions are keyed by qualified name.  This answers "where
        does the *wall clock* go" -- e.g. how much real time the four MCP
        machines' dispatch costs versus the network channels.
        """
        return {
            owner: (int(rec[0]), rec[1])
            for owner, rec in self._profile_stats.items()
        }

    def profile_table(self, limit: Optional[int] = None) -> str:
        """Owners ranked by wall time: ``events / wall ms / mean us``."""
        rows = sorted(
            self.profile_stats().items(), key=lambda kv: kv[1][1], reverse=True
        )
        if limit is not None:
            rows = rows[:limit]
        width = max((len(owner) for owner, _ in rows), default=5)
        lines = [
            f"{'owner'.ljust(width)}  {'events':>8}  {'wall_ms':>9}  {'mean_us':>8}"
        ]
        for owner, (events, wall) in rows:
            mean_us = (wall / events) * 1e6 if events else 0.0
            lines.append(
                f"{owner.ljust(width)}  {events:>8}  {wall * 1e3:>9.3f}  "
                f"{mean_us:>8.2f}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) pending entries.

        O(1) for the heap (its length less the dead-entry count);
        parked wheel timers are folded in by a scan so that
        arming/cancelling timers never pays for this introspection
        counter.
        """
        live = len(self._heap) - self._dead
        for entry in self._wheel.values():
            for handle in entry[2]:
                if handle[3] is not None:
                    live += 1
        return live

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if idle."""
        heap = self._heap
        while True:
            if not heap:
                if not self._wheel:
                    return None
                self._wheel_flush(self._wheel_lo)
                continue
            head = heap[0]
            if head[3] is None:
                heappop(heap)
                self.cancelled_pops += 1
                self._dead -= 1
                continue
            t = head[0]
            if t >= self._wheel_lo:
                self._wheel_flush(t)
                continue
            return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.3f} pending={len(self._heap) - self._dead}>"
