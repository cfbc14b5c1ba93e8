"""The NBC progress engine: advance outstanding schedules as messages land.

One :class:`ProgressEngine` per communicator.  Starting a collective
compiles (or cache-hits) a :class:`~repro.core.schedule.Schedule`,
allocates a per-communicator sequence number and returns a
:class:`Request` immediately; the schedule's rounds then advance inside
the caller's ``request.test()`` / ``request.wait()`` calls as the
underlying GM messages -- which ride the ordinary reliable MCP
send/receive machinery, retransmissions and all -- are delivered to the
port's event queue.

Message envelope: every schedule send travels as a regular GM message
whose payload dict carries ``(nbc_epoch, nbc_seq, nbc_round,
nbc_payload)``.  Delivery matches on ``(epoch, seq, round, source
rank)``: the epoch isolates communicator reconfigurations, the sequence
number isolates concurrent outstanding collectives (MPI's ordering
contract -- collectives are started in the same order on every rank --
makes it agree across ranks), and the round number leans on the
compilers' round-alignment contract.  Messages that arrive before their
request (or round) exists locally park in an early-arrival store.

Stall watchdog: while any request is outstanding the engine keeps a
timer armed through the simulator's retransmit timer *wheel* (PR 7) --
the arm/cancel-heavy pattern the wheel exists for.  A fire with no host
event landed since the previous check counts an ``nbc.watchdog.stalls``
metric and drops an ``nbc.stall`` trace record into the always-on
flight recorder, so a wedged schedule is visible in the black box even
when tracing is off.  Arrival freshness comes from a NIC host-event
listener (:meth:`repro.nic.nic.Nic.add_host_event_listener`) -- the
progress hook the MCP machines call as they post events to the host.

Tracing: each request allocates a root :class:`TraceContext`; every
round derives a child span, and every send carries a grandchild, so the
critical-path analyzer attributes wire time to schedule rounds.
"""

from __future__ import annotations

from typing import Any, Deque, Dict, List, Optional, TYPE_CHECKING

from collections import deque

from repro.gm.events import RecvEvent, SentEvent
from repro.core.schedule import (
    COMPILERS,
    Schedule,
    run_local_ops,
    schedule_signature,
)
from repro.mpi.nbc.cache import ScheduleCache
from repro.sim.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator

#: Payload size of a pure-notification schedule message (barrier rounds).
NOTIFY_BYTES = 16
#: Payload size of a value-carrying schedule message.
DATA_BYTES = 64


class Request:
    """Handle on one outstanding non-blocking collective (MPI_Request).

    ``test()`` polls without blocking, ``wait()`` blocks until complete;
    both are host generators and both progress *every* outstanding
    schedule on the communicator, not just this one -- progress is a
    property of the engine, the request is just a completion flag plus
    the result slot.
    """

    __slots__ = (
        "comm", "seq", "kind", "done", "result", "started_at",
        "completed_at", "aborted",
    )

    def __init__(self, comm: "Communicator", seq: int, kind: str) -> None:
        self.comm = comm
        self.seq = seq
        self.kind = kind
        self.done = False
        self.result: Any = None
        self.started_at = comm.nbc.sim.now
        self.completed_at: Optional[float] = None
        #: Set when a peer failure aborted the schedule: ``done`` is True
        #: but ``result`` is meaningless (the collective never completed).
        self.aborted = False

    def test(self):
        """Non-blocking completion poll (host generator -> bool).

        One polling-delay charge, like a ``gm_receive`` peek: drains any
        stashed schedule messages, consumes at most one pending event,
        and reports whether this request has completed.
        """
        comm = self.comm
        engine = comm.nbc
        yield from engine.drain_stash(comm)
        if self.done:
            return True
        ev = yield from engine.port.try_receive()
        if ev is not None:
            yield from engine.dispatch(comm, ev)
        return self.done

    def wait(self):
        """Block until the collective completes (host generator).

        Returns the collective's result (``None`` for Ibarrier).
        """
        comm = self.comm
        engine = comm.nbc
        yield from engine.drain_stash(comm)
        while not self.done:
            ev = yield from engine.port.receive()
            yield from engine.dispatch(comm, ev)
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} seq={self.seq} {state}>"


def waitall(requests):
    """MPI_Waitall (host generator): wait on every request, in order.

    Returns the list of results.  Waiting on the first request already
    progresses the others (they share the engine), so the later waits
    usually return without blocking.
    """
    results: List[Any] = []
    for request in requests:
        result = yield from request.wait()
        results.append(result)
    return results


class _Outstanding:
    """Engine-internal progress state of one started schedule."""

    __slots__ = (
        "request", "schedule", "buffers", "round_idx", "waiting",
        "ctx", "round_ctx",
    )

    def __init__(self, request: Request, schedule: Schedule,
                 buffers: Dict[str, Any]) -> None:
        self.request = request
        self.schedule = schedule
        self.buffers = buffers
        self.round_idx = -1  # no round begun yet
        #: Source ranks the current round still awaits.
        self.waiting: set = set()
        self.ctx = TraceContext.root()
        self.round_ctx: Optional[TraceContext] = None


class ProgressEngine:
    """Schedule compiler front-end + progress core for one communicator
    (which owns it, and is passed in rather than referenced back)."""

    def __init__(self, comm: "Communicator",
                 cache: Optional[ScheduleCache] = None) -> None:
        self.port = comm.port
        self.sim = comm.port.node.sim
        self.metrics = self.sim.metrics
        self.cache = cache if cache is not None else ScheduleCache(
            metrics=self.metrics
        )
        self._next_seq = 0
        self._outstanding: Dict[int, _Outstanding] = {}
        #: (seq, round, src_rank) -> payloads that arrived early.
        self._early: Dict[tuple, Deque[Any]] = {}
        self._watchdog = None
        self._last_event_at = self.sim.now
        self._events_seen_at_check = -1
        self._events_landed = 0
        # The MCP progress hook: every event the firmware posts to this
        # port refreshes the engine's liveness clock.
        self.port.nic.add_host_event_listener(
            self.port.port_id, self._on_host_event
        )

    # ------------------------------------------------------------------
    # public surface used by the communicator
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Number of started-but-incomplete requests."""
        return len(self._outstanding)

    def start_collective(self, comm: "Communicator", kind: str,
                         value: Any = None, op: str = "sum", root: int = 0):
        """Compile/fetch the schedule for ``kind`` and start it (host
        generator -> :class:`Request`).

        The compile step costs zero simulated time by design -- it is
        pure host arithmetic the blocking path pays too -- so a cache
        hit and a cold compile drive bit-identical simulations; the
        cache's value is host *wall-clock* work avoided, measured by the
        ``nbc.cache.*`` metrics rather than simulated latency.
        """
        size, rank = comm.size, comm.rank
        if kind == "ibarrier":
            shape: Dict[str, Any] = {}
            buffers: Dict[str, Any] = {}
        elif kind == "ibcast":
            shape = {"root": root}
            buffers = {"val": value if rank == root else None}
        elif kind == "iallreduce":
            shape = {"op": op}
            buffers = {"acc": value}
        else:
            raise ValueError(f"unknown non-blocking collective {kind!r}")
        schedule = self.cache.get_or_compile(
            schedule_signature(kind, size, rank, **shape),
            lambda: COMPILERS[kind](size, rank, **shape),
        )

        seq = self._next_seq
        self._next_seq += 1
        request = Request(comm, seq, kind)
        state = _Outstanding(request, schedule, buffers)
        self._outstanding[seq] = state
        self.metrics.counter("nbc.requests").inc()
        self.port._trace(
            "nbc.queue", ctx=state.ctx, seq=seq, kind=kind,
            rounds=schedule.num_rounds, port=self.port.port_id,
        )
        yield from self.port.ensure_receive_buffers(comm.params.recv_pool)
        self._arm_watchdog(comm.params.nbc_watchdog_us)
        yield from self._begin_round(comm, state)
        return request

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------
    @staticmethod
    def is_nbc_event(ev) -> bool:
        """Whether a GM event is a schedule message of this subsystem."""
        return (
            isinstance(ev, RecvEvent)
            and isinstance(ev.payload, dict)
            and "nbc_seq" in ev.payload
        )

    def drain_stash(self, comm: "Communicator"):
        """Consume schedule messages parked in the port stash (host
        generator).  Blocking receives elsewhere (tag matching, barrier
        completion waits) stash events they do not recognize; any of
        ours are delivered before touching the live event queue."""
        stash = self.port._stash
        index = 0
        while index < len(stash):
            ev = stash[index]
            if self.is_nbc_event(ev):
                del stash[index]
                yield from self._deliver(comm, ev)
            else:
                index += 1

    def dispatch(self, comm: "Communicator", ev):
        """Route one just-received event (host generator -> bool).

        Schedule messages are delivered into their request's state;
        send completions are dropped (the NIC already returned the
        token); everything else is stashed for the blocking receives it
        belongs to.  Returns True when the event was consumed here.
        """
        if self.is_nbc_event(ev):
            yield from self._deliver(comm, ev)
            return True
        if isinstance(ev, SentEvent):
            return True
        self.port._stash.append(ev)
        return False

    def _deliver(self, comm: "Communicator", ev: RecvEvent):
        """Fill the receive this message answers, or park it as early."""
        payload = ev.payload
        if payload.get("nbc_epoch") != self.cache.epoch:
            # A message from before a reconfiguration: poison, drop it.
            self.metrics.counter("nbc.stale_epoch_dropped").inc()
            yield from self.port.provide_receive_buffer()
            return
        yield from comm._charge_message()
        # Keep the standing pool at strength for the rounds to come.
        yield from self.port.provide_receive_buffer()
        src_rank = comm._rank_of((ev.src_node, ev.src_port))
        seq = payload["nbc_seq"]
        rnd = payload["nbc_round"]
        value = payload.get("nbc_payload")
        state = self._outstanding.get(seq)
        if (
            state is not None
            and state.round_idx == rnd
            and src_rank in state.waiting
        ):
            self._fill(state, src_rank, value)
            yield from self._maybe_advance(comm, state)
        else:
            self._early.setdefault((seq, rnd, src_rank), deque()).append(value)
            self.metrics.counter("nbc.early_arrivals").inc()

    def _fill(self, state: _Outstanding, src_rank: int, value: Any) -> None:
        """Store a landed payload into its recv op's slot."""
        state.waiting.discard(src_rank)
        for op in state.schedule.rounds[state.round_idx]:
            if op.kind == "recv" and op.peer == src_rank:
                if op.slot is not None:
                    state.buffers[op.slot] = value
                return

    # ------------------------------------------------------------------
    # round progression
    # ------------------------------------------------------------------
    def _begin_round(self, comm: "Communicator", state: _Outstanding):
        """Enter the next round: issue its sends, post its receives,
        absorb early arrivals, and cascade through rounds that complete
        immediately (host generator)."""
        while True:
            state.round_idx += 1
            if state.round_idx >= state.schedule.num_rounds:
                self._finish(state)
                return
            rnd = state.round_idx
            ops = state.schedule.rounds[rnd]
            state.round_ctx = ctx = state.ctx.child()
            if ops:
                self.port._trace(
                    "nbc.round", ctx=ctx, seq=state.request.seq, round=rnd,
                )
            state.waiting = {op.peer for op in ops if op.kind == "recv"}
            for op in ops:
                if op.kind != "send":
                    continue
                dst = comm._endpoint(op.peer)
                value = None if op.slot is None else state.buffers.get(op.slot)
                yield from comm._charge_message()
                yield from self.port.send_with_callback(
                    dst_node=dst[0],
                    dst_port=dst[1],
                    size_bytes=NOTIFY_BYTES if op.slot is None else DATA_BYTES,
                    payload={
                        "nbc_epoch": self.cache.epoch,
                        "nbc_seq": state.request.seq,
                        "nbc_round": rnd,
                        "nbc_payload": value,
                    },
                    ctx=ctx.child(),
                )
            # Absorb anything that raced ahead of this round.
            for src_rank in tuple(state.waiting):
                queue = self._early.get((state.request.seq, rnd, src_rank))
                if queue:
                    value = queue.popleft()
                    if not queue:
                        del self._early[(state.request.seq, rnd, src_rank)]
                    self._fill(state, src_rank, value)
            if state.waiting:
                return
            run_local_ops(ops, state.buffers)

    def _maybe_advance(self, comm: "Communicator", state: _Outstanding):
        """Advance past the current round if its receives all landed."""
        if state.waiting:
            return
        run_local_ops(state.schedule.rounds[state.round_idx], state.buffers)
        yield from self._begin_round(comm, state)

    def _finish(self, state: _Outstanding) -> None:
        """Mark the request complete and release its progress state."""
        request = state.request
        request.done = True
        request.completed_at = self.sim.now
        schedule = state.schedule
        if schedule.result_slot is not None:
            request.result = state.buffers.get(schedule.result_slot)
        del self._outstanding[request.seq]
        self.metrics.counter("nbc.completed").inc()
        self.metrics.histogram("nbc.latency_us").observe(
            request.completed_at - request.started_at
        )
        self.port._trace(
            "nbc.exit", ctx=state.ctx, seq=request.seq, kind=request.kind,
        )
        if not self._outstanding:
            self._disarm_watchdog()

    def abort_outstanding(self) -> None:
        """Abort every outstanding request: a peer failed, so schedules
        compiled against the old group can never complete.  Each request
        finishes with ``aborted=True`` and a ``None`` result; early
        arrivals are dropped, and the epoch bump of the communicator's
        subsequent :meth:`~repro.mpi.communicator.Communicator.reconfigure`
        poisons any straggler messages still in flight."""
        for seq in sorted(self._outstanding):
            state = self._outstanding.pop(seq)
            request = state.request
            request.done = True
            request.aborted = True
            request.result = None
            request.completed_at = self.sim.now
            self.metrics.counter("nbc.aborted").inc()
            self.port._trace(
                "nbc.abort", ctx=state.ctx, seq=seq, round=state.round_idx,
            )
        self._early.clear()
        self._disarm_watchdog()

    def on_reconfigure(self) -> None:
        """The communicator reshaped: drop compiled schedules (the epoch
        bump poisons in-flight messages from the old shape) and restart
        the sequence space.  Ranks abort at *different* seqs when a peer
        dies mid-collective; the reconfiguration is collective, so it is
        the resynchronization point that restores the started-in-the-
        same-order contract inside the new epoch."""
        self.cache.invalidate()
        self._early.clear()
        self._next_seq = 0

    # ------------------------------------------------------------------
    # liveness: MCP host-event hook + timer-wheel watchdog
    # ------------------------------------------------------------------
    def _on_host_event(self, event) -> None:
        """NIC progress hook: an event landed on this port's queue."""
        self._last_event_at = self.sim.now
        self._events_landed += 1

    def _arm_watchdog(self, period_us: float) -> None:
        if self._watchdog is not None:
            return
        self._events_seen_at_check = self._events_landed
        self._watchdog = self.sim.schedule_timer(
            period_us, self._watchdog_fire, period_us
        )

    def _disarm_watchdog(self) -> None:
        if self._watchdog is not None:
            self.sim.cancel(self._watchdog)
            self._watchdog = None

    def _watchdog_fire(self, period_us: float) -> None:
        """Timer-wheel callback: flag outstanding schedules seeing no
        events.  Observation only -- progress itself always happens in
        ``test``/``wait`` context -- but the stall record lands in the
        flight recorder, so a wedged schedule is visible post-mortem."""
        self._watchdog = None
        if not self._outstanding:
            return
        if self.port.nic.crashed or not self.port.is_open:
            # Fail-stop: the NIC under this engine died (NodeCrash killed
            # the host processes with it, or a NicCrash cut off the
            # fabric).  Nothing can progress, and re-arming would keep a
            # dead node's timer ticking forever.
            return
        if self._events_landed == self._events_seen_at_check:
            self.metrics.counter("nbc.watchdog.stalls").inc()
            oldest = min(self._outstanding)
            state = self._outstanding[oldest]
            self.port._trace(
                "nbc.stall", ctx=state.ctx, seq=oldest,
                round=state.round_idx,
                waiting=sorted(state.waiting),
                idle_us=self.sim.now - self._last_event_at,
            )
        self._arm_watchdog(period_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ProgressEngine port={self.port.endpoint} "
            f"outstanding={len(self._outstanding)}>"
        )
