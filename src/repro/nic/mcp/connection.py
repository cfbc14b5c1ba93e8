"""Per-remote-node connection state.

GM is connectionless at the host level but "provides reliability by
maintaining reliable connections between NICs of different nodes"
(Section 4.1).  The NIC keeps one :class:`Connection` per peer node with:

* the regular reliable stream: send sequence numbers, the *sent list* of
  unacknowledged packets, cumulative ACK / go-back-N NACK handling and a
  retransmission timer;
* the **unexpected-barrier-message record** of Sections 3.1/4.3: one bit
  per source port on this connection ("Because GM allows only eight
  endpoints per NIC, this overhead is only one byte per connection"),
  implemented as an int bitmask with constant-time set/check/clear;
* the *separate* barrier reliability stream of Section 4.4 (per-port
  barrier sequence numbers, unacked barrier packets, last-seen dedup
  state) used when :class:`~repro.gm.constants.BarrierReliability.SEPARATE`
  is selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gm.constants import MAX_PORTS
from repro.gm.tokens import SendToken
from repro.network.packet import Packet
from repro.sim.engine import Simulator


class UnexpectedRecord:
    """The per-connection unexpected-barrier-message bit array.

    One bit per remote source port.  ``set``/``check_clear`` mirror the
    paper's usage: reception of an unexpected barrier message sets the
    source port's bit; when the NIC is ready for that message it checks
    and *clears* the bit ("After a bit is checked, the bit is cleared").

    Beside the paper's one byte of bits we remember which *local* port
    each recorded message was destined for (``dst_ports``), so the close
    path can purge records belonging to a dying endpoint -- without this
    a reused port could match a stale record left by its previous owner.
    For causal tracing we also stash the recorded packet's trace context
    (``ctxs``); ``check_clear`` hands it back (any stored context is
    truthy, plain ``True`` otherwise) so the consumer can continue the
    recorded message's span tree instead of starting a fresh one.  The
    data collectives' record (our Section 8 extension) also keeps the
    message's value (``values``).
    """

    __slots__ = ("bits", "num_ports", "dst_ports", "ctxs", "values")

    def __init__(self, num_ports: int = MAX_PORTS) -> None:
        if not 1 <= num_ports <= 64:
            raise ValueError("port count must fit one machine word")
        self.num_ports = num_ports
        self.bits = 0
        #: src_port -> local dst_port the recorded message targeted.
        self.dst_ports: Dict[int, int] = {}
        #: src_port -> trace context of the recorded message, if any.
        self.ctxs: Dict[int, Any] = {}
        #: src_port -> value carried by the recorded message, if any.
        self.values: Dict[int, Any] = {}

    def _mask(self, src_port: int) -> int:
        if not 0 <= src_port < self.num_ports:
            raise ValueError(f"source port {src_port} out of range")
        return 1 << src_port

    def set(
        self,
        src_port: int,
        dst_port: Optional[int] = None,
        ctx: Any = None,
        value: Any = None,
    ) -> None:
        """Record an unexpected message from ``src_port`` (destined to
        local ``dst_port``, when known)."""
        self.bits |= self._mask(src_port)
        if dst_port is not None:
            self.dst_ports[src_port] = dst_port
        else:
            self.dst_ports.pop(src_port, None)
        if ctx is not None:
            self.ctxs[src_port] = ctx
        else:
            self.ctxs.pop(src_port, None)
        self.values[src_port] = value

    def is_set(self, src_port: int) -> bool:
        """Non-destructive test of a bit (tests/debugging)."""
        return bool(self.bits & self._mask(src_port))

    def take(self, src_port: int) -> Optional[Tuple[Any, Any]]:
        """Test the bit and clear it if set (the paper's check primitive).

        Returns ``(ctx, value)`` of the recorded message when the bit was
        set, ``None`` when it was not.
        """
        mask = self._mask(src_port)
        if not self.bits & mask:
            return None
        self.bits &= ~mask
        self.dst_ports.pop(src_port, None)
        return self.ctxs.pop(src_port, None), self.values.pop(src_port, None)

    def check_clear(self, src_port: int):
        """:meth:`take`, reduced to a truthy value when the bit was set --
        the recorded trace context when one was stored, ``True``
        otherwise -- and ``False`` when it was not."""
        taken = self.take(src_port)
        if taken is None:
            return False
        return taken[0] or True

    def clear_for_dst_port(self, dst_port: int) -> int:
        """Drop every record destined to local ``dst_port`` (port close);
        returns how many bits were cleared."""
        stale = [sp for sp, dp in self.dst_ports.items() if dp == dst_port]
        for src_port in stale:
            self.bits &= ~self._mask(src_port)
            del self.dst_ports[src_port]
            self.ctxs.pop(src_port, None)
            self.values.pop(src_port, None)
        return len(stale)

    def clear_all(self) -> None:
        """Reset the record (port-reuse tests)."""
        self.bits = 0
        self.dst_ports.clear()
        self.ctxs.clear()
        self.values.clear()


@dataclass
class SentEntry:
    """One entry in the sent list (regular reliable stream)."""

    seqno: int
    packet: Packet
    #: Host token to return on ACK; None for firmware-originated packets
    #: (barrier packets in TOKEN_PER_DESTINATION mode).
    token: Optional[SendToken]
    #: Retransmission counter, for tests and livelock detection.
    retransmits: int = 0
    #: Simulated time of the first transmission (time-to-recover metric).
    first_sent_at: float = 0.0


@dataclass
class BarrierUnacked:
    """An unacknowledged barrier packet in the SEPARATE reliability mode."""

    src_port: int
    barrier_seqno: int
    packet: Packet
    retransmits: int = 0
    #: Simulated time of the first transmission (time-to-recover metric).
    first_sent_at: float = 0.0


class Connection:
    """Reliable-connection state toward one remote node."""

    def __init__(
        self,
        sim: Simulator,
        local_node: int,
        remote_node: int,
        num_ports: int = MAX_PORTS,
    ) -> None:
        self.sim = sim
        self.local_node = local_node
        self.remote_node = remote_node

        # -- regular stream, send side -------------------------------------
        self.next_send_seqno = 1
        self.sent_list: List[SentEntry] = []
        self.retransmit_timer: Optional[list] = None

        # -- regular stream, receive side ------------------------------------
        self.expected_seqno = 1
        #: Set while a NACK for the current expected seqno is outstanding,
        #: to avoid NACK storms while the go-back-N retransmission flies.
        self.nack_outstanding = False
        #: Delayed-ACK timer (GM coalesces ACKs instead of acking every
        #: packet); None when no ACK is owed.
        self.ack_timer: Optional[list] = None

        # -- unexpected-barrier-message record (Sections 3.1 / 4.3) ---------
        self.unexpected = UnexpectedRecord(num_ports)
        #: Unexpected *collective* messages get a second record of the
        #: same shape that also keeps their values (same
        #: at-most-one-outstanding invariant; our Section 8 extension).
        self.coll_unexpected = UnexpectedRecord(num_ports)

        # -- separate barrier reliability (Section 4.4) ----------------------
        #: Next barrier seqno per *local* sending port.
        self.barrier_next_seq: Dict[int, int] = {}
        #: Unacked barrier packets (SEPARATE mode), in send order.
        self.barrier_unacked: List[BarrierUnacked] = []
        self.barrier_retransmit_timer: Optional[list] = None
        #: Highest barrier seqno seen per *remote* sending port (dedup).
        self.barrier_last_seen: Dict[int, int] = {}

        # -- statistics -------------------------------------------------------
        self.packets_acked = 0
        self.packets_retransmitted = 0
        self.nacks_sent = 0
        self.duplicates_dropped = 0
        #: Barrier-stream packets dropped because a gap precedes them
        #: (classify_barrier_incoming "future" verdict).
        self.future_dropped = 0
        #: Go-back-N window occupancy high-water marks (regular sent list
        #: and the SEPARATE-mode barrier unacked list).
        self.sent_list_high_water = 0
        self.barrier_unacked_high_water = 0

    def cancel_timers(self) -> None:
        """Cancel the three protocol timers (dead peer, crashed NIC)."""
        for name in ("retransmit_timer", "ack_timer", "barrier_retransmit_timer"):
            timer = getattr(self, name)
            if timer is not None:
                self.sim.cancel(timer)
                setattr(self, name, None)

    # ------------------------------------------------------------------
    # Regular stream, send side
    # ------------------------------------------------------------------
    def assign_seqno(self) -> int:
        """Next regular-stream sequence number."""
        seqno = self.next_send_seqno
        self.next_send_seqno += 1
        return seqno

    def record_sent(self, entry: SentEntry) -> None:
        """Append to the sent list (awaiting ACK)."""
        entry.first_sent_at = self.sim.now
        self.sent_list.append(entry)
        if len(self.sent_list) > self.sent_list_high_water:
            self.sent_list_high_water = len(self.sent_list)

    def handle_ack(self, cum_seqno: int) -> List[SentEntry]:
        """Cumulative ACK: drop entries with seqno <= cum, return them."""
        done = [e for e in self.sent_list if e.seqno <= cum_seqno]
        if done:
            self.sent_list = [e for e in self.sent_list if e.seqno > cum_seqno]
            self.packets_acked += len(done)
        return done

    def entries_from(self, seqno: int) -> List[SentEntry]:
        """Sent-list entries with seqno >= ``seqno`` (go-back-N set)."""
        return [e for e in self.sent_list if e.seqno >= seqno]

    # ------------------------------------------------------------------
    # Regular stream, receive side
    # ------------------------------------------------------------------
    def classify_incoming(self, seqno: int) -> str:
        """'accept', 'duplicate' (re-ack, drop) or 'out_of_order' (NACK)."""
        if seqno == self.expected_seqno:
            return "accept"
        if seqno < self.expected_seqno:
            return "duplicate"
        return "out_of_order"

    def accept_incoming(self) -> None:
        """Advance the receive window after an in-sequence packet."""
        self.expected_seqno += 1
        self.nack_outstanding = False

    # ------------------------------------------------------------------
    # Separate barrier stream (Section 4.4)
    # ------------------------------------------------------------------
    def assign_barrier_seqno(self, src_port: int) -> int:
        """Next barrier-stream sequence number for a local port."""
        seq = self.barrier_next_seq.get(src_port, 0) + 1
        self.barrier_next_seq[src_port] = seq
        return seq

    def record_barrier_sent(self, entry: BarrierUnacked) -> None:
        """Track an unacknowledged SEPARATE-mode barrier packet."""
        entry.first_sent_at = self.sim.now
        self.barrier_unacked.append(entry)
        if len(self.barrier_unacked) > self.barrier_unacked_high_water:
            self.barrier_unacked_high_water = len(self.barrier_unacked)

    def handle_barrier_ack(
        self, src_port: int, barrier_seqno: int
    ) -> Optional[BarrierUnacked]:
        """Drop and return the matching unacked entry, if one was found."""
        for i, e in enumerate(self.barrier_unacked):
            if e.src_port == src_port and e.barrier_seqno == barrier_seqno:
                del self.barrier_unacked[i]
                return e
        return None

    def classify_barrier_incoming(self, src_port: int, barrier_seqno: int) -> str:
        """In-order acceptance for the SEPARATE barrier stream.

        Section 3.3 requires that "the order of messages will be
        maintained ... among barrier messages": a later barrier instance's
        message must never be matched while an earlier one is still
        outstanding (a retransmitted message overtaken by its successor
        would otherwise complete the *wrong* barrier and then be dropped
        as a duplicate, deadlocking the stream).

        Returns ``"accept"`` (in sequence; last-seen is advanced),
        ``"duplicate"`` (already delivered; re-ACK, drop) or ``"future"``
        (a gap exists; drop *without* ACK so the sender's timer
        retransmits the whole unacked window in order).
        """
        last = self.barrier_last_seen.get(src_port, 0)
        if barrier_seqno <= last:
            self.duplicates_dropped += 1
            return "duplicate"
        if barrier_seqno == last + 1:
            self.barrier_last_seen[src_port] = barrier_seqno
            return "accept"
        self.future_dropped += 1
        return "future"

    def drop_barrier_unacked_for_port(self, src_port: int) -> None:
        """Local port closed mid-barrier: abandon its pending retransmits
        ("but only if the endpoint that initiated the barrier has not
        closed since the message was sent", Section 3.2)."""
        self.barrier_unacked = [
            e for e in self.barrier_unacked if e.src_port != src_port
        ]

    def clear_unexpected_for_port(self, port_id: int) -> None:
        """Purge unexpected-record state destined to a closing local port.

        Without this a reused port could match a stale barrier record bit
        (or consume a stale collective value) left behind by the
        endpoint's previous owner.
        """
        self.unexpected.clear_for_dst_port(port_id)
        self.coll_unexpected.clear_for_dst_port(port_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Connection {self.local_node}->{self.remote_node} "
            f"next={self.next_send_seqno} exp={self.expected_seqno} "
            f"unacked={len(self.sent_list)}>"
        )
