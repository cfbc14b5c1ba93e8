"""Send and receive tokens.

Tokens are GM's flow-control currency between host and NIC (Section 4.1):
the host fills in a send token and queues it to the NIC; the NIC hands it
back when the send completes.  Receive tokens describe host buffers the
NIC may DMA incoming messages into.

The barrier extension (Section 4.2) reuses the send-token structure: a
:class:`BarrierSendToken` carries the list of node/port ids to exchange
with plus the ``node_index`` cursor, and the NIC keeps a pointer to it in
the port data structure while the barrier is in flight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.gm.events import BarrierCompletedEvent, CollectiveCompletedEvent, GmEvent
from repro.network.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.tracing import TraceContext

_token_ids = itertools.count(1)


@dataclass
class SendToken:
    """A host-initiated send event.

    Attributes
    ----------
    src_port:
        Port id the send originates from.
    dst_node, dst_port:
        Destination endpoint.
    size_bytes:
        Payload size; drives SDMA/wire/RDMA timing.
    payload:
        Opaque message body carried through the simulation.

    The NIC returns the token, once the send is acknowledged, by posting
    a :class:`~repro.gm.events.SentEvent` naming its ``token_id``.
    """

    src_port: int
    dst_node: int
    dst_port: int
    size_bytes: int = 0
    payload: Any = None
    token_id: int = field(default_factory=lambda: next(_token_ids))
    #: Regular-stream sequence number, assigned by SDMA when it records
    #: the prepared packet on the sent list (after its last charge).
    seqno: Optional[int] = None
    #: Simulated time the host queued the token (for traces/latency tests).
    queued_at: Optional[float] = None
    #: Wire packet type: DATA for ordinary sends; the one-sided layer
    #: sends PUT / GET_REQ through the same reliable path.
    wire_type: Optional["PacketType"] = None
    #: Root causal trace context, stamped by the GM API at queue time;
    #: the packet this token produces becomes a child span of it.
    ctx: Optional["TraceContext"] = None

    #: Dispatch flag: ordinary sends are not barrier tokens.
    is_barrier = False

    #: Dispatch flag: ordinary sends have one destination.
    is_multicast = False


@dataclass
class MulticastSendToken:
    """A NIC-assisted multidestination send.

    Models the authors' prior work the paper cites as [2] (Buntinas,
    Panda, Duato, Sadayappan, CANPC 2000): the host queues *one* token
    with a destination list; the NIC DMAs the payload once and
    replicates the packet to every destination, so the host pays one
    send initiation instead of k.  The token returns when every
    destination's packet is acknowledged.
    """

    src_port: int
    destinations: List["Endpoint"] = field(default_factory=list)
    size_bytes: int = 0
    payload: Any = None
    token_id: int = field(default_factory=lambda: next(_token_ids))
    queued_at: Optional[float] = None
    #: Acknowledgments still outstanding; set by SDMA at fan-out time.
    remaining_acks: int = 0
    #: Root causal trace context; each replica packet is a child span.
    ctx: Optional["TraceContext"] = None

    def __post_init__(self) -> None:
        if not self.destinations:
            raise ValueError("multicast needs at least one destination")
        if len(set(self.destinations)) != len(self.destinations):
            raise ValueError("duplicate multicast destinations")

    #: Dispatch flag: multicast is not a barrier token.
    is_barrier = False

    #: Dispatch flag: SDMA fans this token out to every destination.
    is_multicast = True


#: An endpoint is a (node_id, port_id) pair.
Endpoint = Tuple[int, int]


@dataclass(frozen=True)
class PeStep:
    """One PE step: exchange with ``peer``.

    For power-of-two groups every step is a full exchange (``send`` and
    ``recv`` both True), exactly the paper's send-followed-by-receive.
    Non-power-of-two groups (MPICH extension) additionally use send-only
    (the extra rank's notification / the proxy's release) and recv-only
    steps, which a symmetric exchange engine cannot express without
    releasing the extra rank early.
    """

    peer: Endpoint
    send: bool = True
    recv: bool = True

    def __post_init__(self) -> None:
        if not (self.send or self.recv):
            raise ValueError("a PE step must send, receive, or both")


@dataclass
class BarrierSendToken:
    """Send token initiating a NIC-based barrier on one port.

    For the **PE** algorithm, ``steps`` is the ordered list of exchange
    steps and ``node_index`` walks it (Section 4.2: "The token will
    store a list of the port ids and node ids with which barrier messages
    will be exchanged, as well as an index, node index, into this list").

    For the **GB** algorithm, ``parent`` is the endpoint to send the gather
    to (``None`` at the root) and ``children`` the endpoints to collect
    gathers from / broadcast to, in order.  GB is the firmware's *tree
    program*, which also runs the data collectives
    (:class:`CollectiveSendToken`): a GB barrier is an allreduce with no
    operator and no value.  The class attributes below are everything
    the two cases differ in.
    """

    src_port: int
    algorithm: str  # "pe" or "gb"
    #: PE: step list, walked by node_index.
    steps: List[PeStep] = field(default_factory=list)
    node_index: int = 0
    #: PE: True once the packet to peers[node_index] has been prepared and
    #: the record checked, i.e. we are parked waiting for the reception.
    awaiting_recv: bool = False
    #: GB: tree neighborhood.
    parent: Optional[Endpoint] = None
    children: List[Endpoint] = field(default_factory=list)
    #: GB: children whose up-phase message has not yet been consumed.
    gather_pending: set = field(default_factory=set)
    #: GB: index of the next child to broadcast to.
    bcast_index: int = 0
    #: GB: current phase, "gather" -> ("await_bcast" ->) "bcast" -> "done".
    phase: str = "gather"
    #: Identifies the barrier instance for tracing and reliability.
    barrier_seq: int = 0
    #: Port generation at initiation; a REJECT-triggered resend happens
    #: "only if the endpoint that initiated the barrier has not closed
    #: since the message was sent" (Section 3.2) -- i.e. only while the
    #: port's generation still matches.
    owner_generation: int = 0
    token_id: int = field(default_factory=lambda: next(_token_ids))
    queued_at: Optional[float] = None
    #: Endpoints we have transmitted a barrier packet to (with the packet
    #: type used), kept for closed-port REJECT retransmission.
    sent_to: List[Tuple[Endpoint, str]] = field(default_factory=list)
    #: Root causal trace context, stamped by the GM API at queue time.
    ctx: Optional["TraceContext"] = None
    #: Context of the incoming barrier packet that most recently advanced
    #: this token; the next outgoing packet becomes *its* child span, so
    #: the critical chain threads through the NIC instead of restarting
    #: at the local root every step.
    cause_ctx: Optional["TraceContext"] = None

    #: The port pointer holding the in-flight token (Section 4.2).
    slot = "barrier_send_token"
    #: Tree program: wire types of the up (gather) and down (broadcast)
    #: phases, and which of the two phases run.
    up_type = PacketType.BARRIER_GATHER
    down_type = PacketType.BARRIER_BCAST
    runs_up = True
    runs_down = True
    #: Wire payload per message (barrier-instance id + flags).
    payload_bytes = 8
    #: Result bytes riding along with the completion notification.
    result_bytes = 0
    #: Tree program: reduction operator (None: nothing to combine, and
    #: no combine cycles), the running combined value of the up phase
    #: and the value delivered with the completion.
    op: Optional[str] = None
    accumulator: Any = None
    result: Any = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("pe", "gb"):
            raise ValueError(f"unknown barrier algorithm {self.algorithm!r}")
        if self.algorithm == "gb":
            self.gather_pending = set(self.children)

    def completion_event(self, nic_complete_time: float, ctx) -> GmEvent:
        """The host event the NIC posts when this operation completes."""
        return BarrierCompletedEvent(
            port_id=self.src_port,
            barrier_seq=self.barrier_seq,
            nic_complete_time=nic_complete_time,
            ctx=ctx,
        )

    #: Dispatch flag: SDMA routes this token to the barrier engine.
    is_barrier = True

    @property
    def current_step(self) -> "PeStep":
        """PE: the step currently in progress."""
        return self.steps[self.node_index]

    @property
    def current_peer(self) -> Endpoint:
        """PE: the endpoint currently being exchanged with."""
        return self.steps[self.node_index].peer

    @property
    def is_root(self) -> bool:
        """GB: True at the root of the tree."""
        return self.parent is None


@dataclass
class CollectiveSendToken(BarrierSendToken):
    """Send token initiating a NIC-based data collective on one port.

    Our implementation of the paper's Section 8 future work ("whether
    other collective communication operations, such as reductions or
    all-to-all broadcast could benefit from similar NIC-level
    implementations").  The barrier engine runs it as the GB tree
    program with values: reduce combines contributions up the tree
    (up phase only), bcast pushes the root's value down (down phase
    only), allreduce does both.  ``algorithm`` is set to ``kind``, so
    trace spans are named after the collective.
    """

    algorithm: str = ""
    kind: str = "allreduce"  # "reduce" | "allreduce" | "bcast"
    op: Optional[str] = "sum"  # "sum" | "prod" | "min" | "max"
    #: This rank's contribution (reduce/allreduce) or the root's value
    #: (bcast; ignored at non-roots).
    value: Any = None
    #: Payload size on the wire per collective message.
    payload_bytes: int = 8

    slot = "coll_send_token"
    up_type = PacketType.COLL_REDUCE
    down_type = PacketType.COLL_BCAST

    def __post_init__(self) -> None:
        if self.kind not in ("reduce", "allreduce", "bcast"):
            raise ValueError(f"unknown collective kind {self.kind!r}")
        if self.kind != "bcast":
            # Imported here: repro.core's package init imports this module.
            from repro.core.schedule import REDUCE_OPS

            if self.op not in REDUCE_OPS:
                raise ValueError(f"unknown reduction op {self.op!r}")
        self.algorithm = self.kind
        self.runs_up = self.kind != "bcast"
        self.runs_down = self.kind != "reduce"
        if self.runs_up:
            self.gather_pending = set(self.children)
        elif not self.is_root:
            self.phase = "await_bcast"
        self.accumulator = self.value

    @property
    def coll_seq(self) -> int:
        """Per-port collective instance number."""
        return self.barrier_seq

    @property
    def result_bytes(self) -> int:
        """The result value rides along with the completion notice."""
        return self.payload_bytes

    def completion_event(self, nic_complete_time: float, ctx) -> GmEvent:
        """The host event the NIC posts when this collective completes."""
        return CollectiveCompletedEvent(
            port_id=self.src_port,
            coll_seq=self.barrier_seq,
            kind=self.kind,
            result=self.result,
            nic_complete_time=nic_complete_time,
        )


@dataclass
class ReceiveToken:
    """A host buffer the NIC may deliver one message into."""

    port_id: int
    size_bytes: int
    token_id: int = field(default_factory=lambda: next(_token_ids))
    #: Set when the NIC consumed this token for an arriving message.
    used: bool = False
