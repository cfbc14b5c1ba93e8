"""NIC-side port data structure.

A *port* is the communication endpoint: the shared-memory structure
through which a host process talks to the NIC while bypassing the OS
(Section 4.1).  The NIC keeps one of these per port id; the host-side
wrapper is :class:`repro.gm.api.GmPort`.

Barrier-relevant fields (Section 4.2): ``barrier_send_token`` is "a
pointer in the port data structure to this send token" so the RDMA state
machine can reach the in-flight barrier state by a single dereference, and
``closed_barrier_record`` implements the adopted Section 3.2 design --
barrier messages arriving for a *closed* port are recorded, then rejected
(triggering one retransmission) when the port opens.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Set, Tuple

from repro.gm.constants import DEFAULT_RECV_TOKENS, DEFAULT_SEND_TOKENS, EVENT_QUEUE_DEPTH
from repro.gm.events import GmEvent
from repro.gm.tokens import BarrierSendToken, ReceiveToken
from repro.sim.engine import Simulator
from repro.sim.primitives import Store

if TYPE_CHECKING:  # pragma: no cover
    pass


class PortClosedError(Exception):
    """Operation attempted on a closed port."""


class NicPort:
    """Per-port state held on the NIC."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        port_id: int,
        send_tokens: int = DEFAULT_SEND_TOKENS,
        recv_tokens_capacity: int = DEFAULT_RECV_TOKENS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.port_id = port_id
        self.is_open = False
        #: Generation counter: bumped on every open so stale state from a
        #: previous owner of the endpoint can be detected in tests.
        self.generation = 0

        # -- flow control -------------------------------------------------
        self.send_tokens_total = send_tokens
        self.send_tokens_free = send_tokens
        self.recv_tokens_capacity = recv_tokens_capacity
        # The host-facing queues are allocated on the first open(): a NIC
        # has eight ports and most are never opened.  Until then they are
        # empty and immutable.
        #: Receive tokens posted by the host (buffers the NIC may fill).
        self.recv_tokens: Deque[ReceiveToken] = ()  # type: ignore[assignment]
        #: Receive tokens earmarked for barrier completion notifications
        #: (gm_provide_barrier_buffer(), Section 5.2).
        self.barrier_buffers: Deque[ReceiveToken] = ()  # type: ignore[assignment]
        #: NIC -> host event queue.
        self.event_queue: Optional[Store[GmEvent]] = None

        # -- barrier state (Section 4.2) ------------------------------------
        #: The in-flight barrier's send token, or None when no barrier is
        #: active on this port.
        self.barrier_send_token: Optional[BarrierSendToken] = None
        #: Monotone per-port barrier instance counter.
        self.barrier_seq = 0
        #: The in-flight data collective's token (our Section 8
        #: extension); like barriers, one per port at a time.
        self.coll_send_token = None
        self.coll_seq = 0
        #: (src_node, src_port) of each barrier message that arrived while
        #: the port was closed -> its trace context, so the REJECT sent on
        #: open (and the resend it provokes) stays in the sender's span
        #: tree.
        self.closed_barrier_ctx: Dict[Tuple[int, int], Any] = {}
        #: Regions exposed for one-sided Get/Put, keyed by region id
        #: (the Section 8 Get/Put layer).
        self.exposed_regions: dict = {}

        # -- statistics -----------------------------------------------------
        self.messages_sent = 0
        self.messages_received = 0
        #: NIC barriers and collectives completed on this port.
        self.barriers_completed = 0

    @property
    def closed_barrier_record(self) -> Set[Tuple[int, int]]:
        """Senders recorded while the port was closed; rejected (-> the
        sender retransmits) on open."""
        return set(self.closed_barrier_ctx)

    # ------------------------------------------------------------------
    def open(self) -> None:
        """Open the port for a new owner; bumps the generation."""
        if self.is_open:
            raise RuntimeError(
                f"port {self.port_id} on node {self.node_id} already open"
            )
        if self.event_queue is None:
            self.recv_tokens = deque()
            self.barrier_buffers = deque()
            self.event_queue = Store(
                self.sim,
                capacity=EVENT_QUEUE_DEPTH,
                name=f"n{self.node_id}p{self.port_id}.events",
            )
        self.is_open = True
        self.generation += 1
        self.send_tokens_free = self.send_tokens_total

    def close(self) -> None:
        """Close the port, abandoning barrier state and queued events."""
        if not self.is_open:
            raise RuntimeError(
                f"port {self.port_id} on node {self.node_id} already closed"
            )
        self.is_open = False
        # A process that dies mid-barrier abandons its token; the NIC
        # clears the pointer so a future owner starts clean (Section 3.2).
        self.barrier_send_token = None
        self.coll_send_token = None
        self.exposed_regions.clear()
        self.recv_tokens.clear()
        self.barrier_buffers.clear()
        # Drain pending events: nobody is left to read them.
        while self.event_queue.try_get() is not None:
            pass

    def closed_error(self) -> PortClosedError:
        """The error an operation on this port raises while it is
        closed: ``if not port.is_open: raise port.closed_error()``."""
        return PortClosedError(
            f"port {self.port_id} on node {self.node_id} is closed"
        )

    # -- token bookkeeping ------------------------------------------------
    def take_send_token(self) -> None:
        """Consume one send token (flow control toward the NIC)."""
        if not self.is_open:
            raise self.closed_error()
        if self.send_tokens_free <= 0:
            raise RuntimeError(
                f"port {self.port_id}: out of send tokens "
                f"(limit {self.send_tokens_total})"
            )
        self.send_tokens_free -= 1

    def return_send_token(self) -> None:
        """Give a send token back (send completed/acknowledged)."""
        if self.send_tokens_free >= self.send_tokens_total:
            raise RuntimeError(f"port {self.port_id}: send-token double return")
        self.send_tokens_free += 1

    def post_recv_token(self, token: ReceiveToken) -> None:
        """Make a host receive buffer available to the NIC."""
        if not self.is_open:
            raise self.closed_error()
        if len(self.recv_tokens) >= self.recv_tokens_capacity:
            raise RuntimeError(
                f"port {self.port_id}: receive-token queue full "
                f"(capacity {self.recv_tokens_capacity})"
            )
        self.recv_tokens.append(token)

    def take_recv_token(self, size_bytes: int) -> Optional[ReceiveToken]:
        """Consume the oldest receive token large enough for a message."""
        for i, tok in enumerate(self.recv_tokens):
            if tok.size_bytes >= size_bytes:
                del self.recv_tokens[i]
                tok.used = True
                return tok
        return None

    def post_barrier_buffer(self, token: ReceiveToken) -> None:
        """Queue a buffer for a barrier/collective completion notice."""
        if not self.is_open:
            raise self.closed_error()
        self.barrier_buffers.append(token)

    def take_barrier_buffer(self) -> Optional[ReceiveToken]:
        """Consume the oldest barrier-completion buffer, if any."""
        if self.barrier_buffers:
            tok = self.barrier_buffers.popleft()
            tok.used = True
            return tok
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.is_open else "closed"
        return f"<NicPort node={self.node_id} port={self.port_id} {state}>"
