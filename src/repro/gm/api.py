"""The host-side GM API.

This mirrors the GM user library: a process opens a port (OS bypass),
sends by queueing send tokens, receives by polling events, and -- with the
paper's extension -- initiates NIC-based barriers with
``gm_provide_barrier_buffer()`` + ``gm_barrier_send_with_callback()`` and
polls for ``GM_BARRIER_COMPLETED_EVENT`` (Section 5.2).

All public methods that consume time are generators to be driven from a
host application process: ``token = yield from port.send_with_callback(...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.gm.events import (
    BarrierCompletedEvent,
    CollectiveCompletedEvent,
    GmEvent,
    PeerFailure,
    PeerFailureEvent,
    RecvEvent,
    SentEvent,
)
from repro.gm.tokens import (
    BarrierSendToken,
    CollectiveSendToken,
    MulticastSendToken,
    ReceiveToken,
    SendToken,
)
from repro.sim.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.topology_calc import BarrierPlan
    from repro.host.node import Node
    from repro.nic.nic import Nic


class GmPort:
    """A process's handle on an open GM port."""

    def __init__(self, node: "Node", nic: "Nic", port_id: int) -> None:
        self.node = node
        self.nic = nic
        self.port_id = port_id
        self.port = nic.port(port_id)
        #: Category of this port's host-side trace records.
        self.trace_category = f"host{node.node_id}"
        #: Events received but not yet consumed by ``receive_where``.
        self._stash: List[GmEvent] = []
        #: Host-side guard: a barrier initiated on this port whose
        #: completion event has not yet been received.  The NIC keeps its
        #: own pointer, but it only becomes visible after the token-detect
        #: latency, so the host must track in-flight state itself.
        self._barrier_pending = False
        #: Same guard for the data collectives of the Section 8 extension.
        self._collective_pending = False
        #: Suspects whose failure the application has already handled
        #: (via :meth:`acknowledge_failures`, normally from
        #: ``Communicator.shrink``): their PeerFailureEvents stop raising,
        #: so recovery code can keep using the port.
        self._acked_failures: set = set()

    def _trace(self, label: str, **payload) -> None:
        """Host-side trace record (category ``host<node_id>``)."""
        tracer = self.nic.tracer
        if tracer is not None:
            tracer.emit((self.nic.sim.now, self.trace_category, label, payload))

    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> tuple:
        """(node_id, port_id) -- the address peers send to."""
        return (self.node.node_id, self.port_id)

    @property
    def is_open(self) -> bool:
        """Whether the underlying port is open."""
        return self.port.is_open

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_with_callback(
        self,
        dst_node: int,
        dst_port: int,
        size_bytes: int = 0,
        payload: Any = None,
        ctx: Optional[TraceContext] = None,
    ):
        """Queue a reliable send (gm_send_with_callback).  Host generator;
        returns the :class:`~repro.gm.tokens.SendToken`.

        GM's completion callback is a :class:`SentEvent` here: the NIC
        posts one naming the token's ``token_id`` when the send is
        acknowledged, and :meth:`receive` returns it like any event.

        ``ctx`` lets a caller thread its own :class:`TraceContext`
        through the message (schedule rounds attribute wire time to
        their round span this way); by default each send roots a fresh
        trace.
        """
        if not self.port.is_open:
            raise self.port.closed_error()
        yield from self.node.cpu_charges[self.node.params.effective_send_cost_us]
        self.port.take_send_token()
        token = SendToken(
            src_port=self.port_id,
            dst_node=dst_node,
            dst_port=dst_port,
            size_bytes=size_bytes,
            payload=payload,
            ctx=ctx if ctx is not None else TraceContext.root(),
        )
        self.nic.post_token(self.port_id, token)
        self.port.messages_sent += 1
        return token

    def multicast_send_with_callback(
        self,
        destinations,
        size_bytes: int = 0,
        payload: Any = None,
    ):
        """NIC-assisted multidestination send (the paper's reference [2]).

        One host initiation and one host-to-NIC DMA regardless of the
        destination count; the NIC replicates the packet.  Host
        generator; returns the :class:`MulticastSendToken` (it comes back
        as a single :class:`SentEvent` once every destination ACKed).
        """
        if not self.port.is_open:
            raise self.port.closed_error()
        yield from self.node.cpu_charges[self.node.params.effective_send_cost_us]
        self.port.take_send_token()
        token = MulticastSendToken(
            src_port=self.port_id,
            destinations=list(destinations),
            size_bytes=size_bytes,
            payload=payload,
            ctx=TraceContext.root(),
        )
        self.nic.post_token(self.port_id, token)
        self.port.messages_sent += 1
        return token

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def provide_receive_buffer(self, size_bytes: int = 4096):
        """Post a receive token/buffer (gm_provide_receive_buffer)."""
        if not self.port.is_open:
            raise self.port.closed_error()
        yield from self.node.cpu_charges[self.node.params.buffer_post_cost_us]
        self.port.post_recv_token(ReceiveToken(self.port_id, size_bytes))

    def ensure_receive_buffers(self, target: int, size_bytes: int = 4096):
        """Top the posted receive-buffer pool up to ``target``.

        GM applications keep a standing pool of receive buffers sized for
        the worst-case burst; for barrier-style traffic each peer can run
        at most one operation ahead, so a pool of twice the per-operation
        message count guarantees an in-sequence message never finds the
        port without a token (which would NACK and stall on the
        retransmission timer -- or deadlock outright when the blocked
        rank is the one that would have posted the next buffer)."""
        deficit = target - len(self.port.recv_tokens)
        for _ in range(max(0, deficit)):
            yield from self.provide_receive_buffer(size_bytes)

    def receive(self):
        """Poll gm_receive(): yields the next event (host generator).

        Charges the polling detection delay plus the per-event host
        processing cost (``HRecv`` for message/barrier events).

        Raises :class:`~repro.gm.events.PeerFailure` when the event is a
        :class:`~repro.gm.events.PeerFailureEvent` naming a suspect the
        application has not acknowledged -- a blocked receive must never
        outlive its peers.  Acknowledged failures are skipped silently.
        """
        while True:
            event = yield self.port.event_queue  # Store.get()
            params = self.node.params
            if isinstance(event, SentEvent):
                cost = params.poll_delay_us + params.sent_event_cost_us
            else:
                cost = params.poll_delay_us + params.effective_recv_cost_us
            yield from self.node.cpu_charges[cost]
            if isinstance(event, PeerFailureEvent):
                if event.suspects <= self._acked_failures:
                    continue
                self._raise_failure(event)
            if isinstance(event, BarrierCompletedEvent):
                self._barrier_pending = False
                if event.ctx is not None:
                    self._trace(
                        "barrier.exit", ctx=event.ctx, seq=event.barrier_seq,
                        port=self.port_id,
                    )
            elif isinstance(event, CollectiveCompletedEvent):
                self._collective_pending = False
            return event

    def _raise_failure(self, event: PeerFailureEvent) -> None:
        """Raise the typed failure for an unacknowledged suspect set.

        The in-flight guards are cleared first: the NIC already reclaimed
        the aborted operation's tokens, so the port can initiate again
        once the application recovers (shrink + resume).
        """
        self._barrier_pending = False
        self._collective_pending = False
        self._trace(
            "peer.failure", suspects=sorted(event.suspects),
            port=self.port_id, ctx=event.ctx,
        )
        raise PeerFailure(self.node.node_id, event.suspects, ctx=event.ctx)

    def acknowledge_failures(self, suspects) -> None:
        """Mark ``suspects`` as handled: their pending or future
        :class:`PeerFailureEvent`\\ s stop raising on this port (the
        recovery path -- ``Communicator.shrink`` -- calls this before
        talking to the survivors)."""
        self._acked_failures |= set(suspects)

    def receive_where(self, predicate: Callable[[GmEvent], bool]):
        """Receive events until one satisfies ``predicate``; other message
        events are stashed for later calls, send-completions are consumed
        (their only effect -- returning the token -- already happened)."""
        for i, ev in enumerate(self._stash):
            if predicate(ev):
                del self._stash[i]
                return ev
        while True:
            ev = yield from self.receive()
            if predicate(ev):
                return ev
            if not isinstance(ev, SentEvent):
                self._stash.append(ev)

    def try_receive(self):
        """Non-blocking poll (for fuzzy barriers): one polling-delay charge,
        then the next pending event or None.  Raises
        :class:`~repro.gm.events.PeerFailure` like :meth:`receive` when
        the pending event is an unacknowledged failure."""
        yield from self.node.cpu_charges[self.node.params.poll_delay_us]
        event = self.port.event_queue.try_get()
        while isinstance(event, PeerFailureEvent):
            if not event.suspects <= self._acked_failures:
                yield from self.node.cpu_charges[
                    self.node.params.effective_recv_cost_us
                ]
                self._raise_failure(event)
            event = self.port.event_queue.try_get()
        if event is None:
            return None
        params = self.node.params
        if isinstance(event, SentEvent):
            yield from self.node.cpu_charges[params.sent_event_cost_us]
        else:
            yield from self.node.cpu_charges[params.effective_recv_cost_us]
        if isinstance(event, BarrierCompletedEvent):
            self._barrier_pending = False
            if event.ctx is not None:
                self._trace(
                    "barrier.exit", ctx=event.ctx, seq=event.barrier_seq,
                    port=self.port_id,
                )
        elif isinstance(event, CollectiveCompletedEvent):
            self._collective_pending = False
        return event

    # ------------------------------------------------------------------
    # The barrier extension (Section 5.2)
    # ------------------------------------------------------------------
    def provide_barrier_buffer(self):
        """gm_provide_barrier_buffer(): post the receive token the NIC
        will use for the completion notification."""
        if not self.port.is_open:
            raise self.port.closed_error()
        yield from self.node.cpu_charges[self.node.params.buffer_post_cost_us]
        self.port.post_barrier_buffer(ReceiveToken(self.port_id, 16))

    def barrier_send_with_callback(self, plan: "BarrierPlan"):
        """gm_barrier_send_with_callback(): hand the NIC the barrier
        neighborhood computed on the host and initiate the barrier.

        Host generator; returns the :class:`BarrierSendToken`.  Completion
        is signalled by a :class:`BarrierCompletedEvent` on ``receive``.
        """
        if not self.port.is_open:
            raise self.port.closed_error()
        if self._barrier_pending or self.port.barrier_send_token is not None:
            raise RuntimeError(
                f"port {self.port_id}: a barrier is already in flight"
            )
        params = self.node.params
        yield from self.node.cpu_charges[
            params.barrier_setup_cost_us + params.effective_send_cost_us
        ]
        self.port.take_send_token()
        self.port.barrier_seq += 1
        token = BarrierSendToken(
            src_port=self.port_id,
            algorithm=plan.algorithm,
            steps=list(plan.steps),
            parent=plan.parent,
            children=list(plan.children),
            barrier_seq=self.port.barrier_seq,
            ctx=TraceContext.root(),
        )
        self._barrier_pending = True
        self._trace(
            "barrier.queue", ctx=token.ctx, seq=token.barrier_seq,
            port=self.port_id, alg=token.algorithm,
        )
        self.nic.post_token(self.port_id, token)
        return token

    # ------------------------------------------------------------------
    # NIC-based data collectives (the Section 8 extension)
    # ------------------------------------------------------------------
    def collective_send_with_callback(
        self,
        kind: str,
        plan: "BarrierPlan",
        value: Any = None,
        op: str = "sum",
        payload_bytes: int = 8,
    ):
        """Initiate a NIC-based reduce / allreduce / bcast over the GB
        tree described by ``plan`` (host generator; returns the token).

        Completion is signalled by a
        :class:`~repro.gm.events.CollectiveCompletedEvent` carrying the
        result.  Requires a completion buffer posted via
        :meth:`provide_barrier_buffer`, like a barrier.
        """
        if not self.port.is_open:
            raise self.port.closed_error()
        if self._collective_pending or self.port.coll_send_token is not None:
            raise RuntimeError(
                f"port {self.port_id}: a collective is already in flight"
            )
        params = self.node.params
        yield from self.node.cpu_charges[
            params.barrier_setup_cost_us + params.effective_send_cost_us
        ]
        self.port.take_send_token()
        self.port.coll_seq += 1
        token = CollectiveSendToken(
            src_port=self.port_id,
            kind=kind,
            op=op,
            value=value,
            payload_bytes=payload_bytes,
            parent=plan.parent,
            children=list(plan.children),
            barrier_seq=self.port.coll_seq,
            ctx=TraceContext.root(),
        )
        self._collective_pending = True
        self.nic.post_token(self.port_id, token)
        return token

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close via the driver (convenience)."""
        self.node.driver.close_port(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GmPort node={self.node.node_id} port={self.port_id}>"
