"""Network packets.

GM packet types plus the barrier packet types this reproduction adds
(Section 5.2 of the paper: a separate packet type per GB phase, one for PE
exchanges, and -- for the completed reliability design of Section 4.4 --
barrier ACK and barrier REJECT types).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.tracing import TraceContext


class PacketType(enum.Enum):
    """Wire-level packet types."""

    #: Ordinary GM reliable data packet.
    DATA = "data"
    #: Positive acknowledgment for the regular reliable stream.
    ACK = "ack"
    #: Negative acknowledgment (go-back-N trigger) for the regular stream.
    NACK = "nack"
    #: Pairwise-exchange barrier message (Section 5, PE algorithm).
    BARRIER_PE = "barrier_pe"
    #: Gather-phase message of the GB barrier algorithm.
    BARRIER_GATHER = "barrier_gather"
    #: Broadcast-phase message of the GB barrier algorithm.
    BARRIER_BCAST = "barrier_bcast"
    #: Acknowledgment for the *separate* barrier reliability mechanism.
    BARRIER_ACK = "barrier_ack"
    #: Rejection of a barrier message that arrived for a closed port
    #: (Section 3.2, adopted solution): tells the sender to retransmit.
    BARRIER_REJECT = "barrier_reject"
    #: Reduction-phase message of a NIC-based collective (our extension of
    #: Section 8's future work: value travels up the tree, combined at
    #: each node).
    COLL_REDUCE = "coll_reduce"
    #: Broadcast-phase message of a NIC-based collective (root's value /
    #: reduction result travels down the tree).
    COLL_BCAST = "coll_bcast"
    #: One-sided put: data written directly into an exposed remote region,
    #: no receive token consumed (the Get/Put layer of Section 8).
    PUT = "put"
    #: One-sided get request: asks the remote NIC to read an exposed
    #: region and reply.
    GET_REQ = "get_req"
    #: One-sided get reply carrying the requested data.
    GET_REPLY = "get_reply"
    #: Failure-detector liveness probe: sent by an armed heartbeat
    #: detector to peers it has not talked to recently.  Fire-and-forget
    #: (no reliability stream, no ACK) -- its *absence* is the signal.
    HEARTBEAT = "heartbeat"

    # Plain attributes of every member, set once below the class: a
    # packet-path test reads one attribute, where a property would call
    # into Python and hash the member into a frozenset.
    #: The wire name, ``value`` without the two Python calls it costs.
    wire: str
    #: Whether this type is a barrier payload (PE/gather/bcast).
    is_barrier: bool
    #: Whether this type is a data-collective payload.
    is_collective: bool
    #: Whether this type is a one-sided Get/Put payload.
    is_onesided: bool
    #: Whether this is a protocol control packet (ACK family).
    is_control: bool


for _ptype in PacketType:
    _ptype.wire = _ptype.value
    _ptype.is_barrier = _ptype in (
        PacketType.BARRIER_PE, PacketType.BARRIER_GATHER, PacketType.BARRIER_BCAST,
    )
    _ptype.is_collective = _ptype in (PacketType.COLL_REDUCE, PacketType.COLL_BCAST)
    _ptype.is_onesided = _ptype in (
        PacketType.PUT, PacketType.GET_REQ, PacketType.GET_REPLY,
    )
    _ptype.is_control = _ptype in (
        PacketType.ACK, PacketType.NACK, PacketType.BARRIER_ACK,
        PacketType.BARRIER_REJECT,
    )
del _ptype

#: Myrinet/GM-like header size in bytes (route bytes + type + src/dst
#: port ids + sequence number + CRC).
HEADER_BYTES = 16

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A packet in flight.

    Attributes
    ----------
    ptype:
        Wire packet type.
    src_node, src_port:
        Sending endpoint.  ``src_port`` is the GM port id (0..7).
    dst_node, dst_port:
        Receiving endpoint.
    seqno:
        Sequence number in whichever reliability stream this packet
        belongs to (regular connection stream or barrier stream).
    payload_bytes:
        Size of the payload on the wire; total wire size adds the header.
    payload:
        Opaque simulation payload (message body, barrier metadata).  Not
        counted for timing beyond ``payload_bytes``.
    route:
        Remaining source-route: one output-port index per switch hop,
        consumed front-first by each switch.
    """

    ptype: PacketType
    src_node: int
    src_port: int
    dst_node: int
    dst_port: int
    seqno: int = 0
    payload_bytes: int = 0
    payload: Dict[str, Any] = field(default_factory=dict)
    route: List[int] = field(default_factory=list)
    #: Unique id for tracing / matching ACKs in tests.
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Stamp set by the injecting NIC; used by traces and latency tests.
    injected_at: Optional[float] = None
    #: Causal trace context (Dapper-style), stamped by the sender and
    #: advanced per switch hop / retransmission.  Never affects timing.
    ctx: Optional["TraceContext"] = None

    @property
    def size_bytes(self) -> int:
        """Total wire size (header + payload)."""
        return HEADER_BYTES + self.payload_bytes

    @property
    def is_barrier(self) -> bool:
        """Shorthand for ``ptype.is_barrier``."""
        return self.ptype.is_barrier

    def hop(self) -> int:
        """Consume and return the next route byte (called by switches)."""
        if not self.route:
            raise RuntimeError(f"packet {self} has exhausted its route")
        return self.route.pop(0)

    def __str__(self) -> str:
        return (
            f"{self.ptype.wire}#{self.packet_id}"
            f" ({self.src_node}:{self.src_port}->{self.dst_node}:{self.dst_port}"
            f" seq={self.seqno})"
        )
