"""NIC-based data collectives: reduce, allreduce, broadcast.

The paper's Section 8 closes with: "we intend to investigate whether
other collective communication operations, such as reductions or
all-to-all broadcast could benefit from similar NIC-level
implementations."  This module is that investigation, built on the same
machinery as the GB barrier:

* a **reduction** travels up the tree like the gather phase, but each
  message carries a value and every node combines its children's values
  with its own (``coll_combine`` firmware cycles per value);
* a **broadcast** travels down the tree like the broadcast phase,
  carrying the root's value (or the reduction result, for allreduce);
* the **unexpected-message record** generalizes from one bit to one value
  slot per (connection, source port) -- the same at-most-one-outstanding
  invariant holds, because a peer cannot start its next collective before
  this node releases it from the current one.

The engine follows the barrier engine's atomicity discipline: charge the
NIC CPU first, then decide and mutate at one simulated instant.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.core.schedule import REDUCE_OPS
from repro.gm.constants import BarrierReliability
from repro.gm.events import CollectiveCompletedEvent
from repro.gm.port import NicPort
from repro.gm.tokens import CollectiveSendToken, Endpoint
from repro.network.packet import Packet, PacketType
from repro.nic.mcp.connection import BarrierUnacked, SentEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic

#: Size of the completion notification DMAed to the host (the result
#: value rides along, so the payload size adds to this).
COMPLETION_DMA_BYTES = 16

class NicCollectiveEngine:
    """Collective firmware state shared by the MCP machines of one NIC."""

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        self._recent_tokens: Dict[int, Deque[CollectiveSendToken]] = {}
        self.collectives_initiated = 0
        self.unexpected_recorded = 0
        self.resends = 0

    # ------------------------------------------------------------------
    def cpu(self, operation: str):
        """Charge one firmware operation against the NIC processor."""
        yield from self.nic.cpu_time(operation)

    def trace(self, label: str, **payload) -> None:
        """Record a trace event if tracing is enabled."""
        if self.nic.tracer is not None:
            self.nic.tracer.record(
                f"nic{self.nic.node_id}", f"coll.{label}", **payload
            )

    def _token_live(self, port: NicPort, token: CollectiveSendToken) -> bool:
        return port.is_open and port.coll_send_token is token

    def _remember(self, port_id: int, token: CollectiveSendToken) -> None:
        ring = self._recent_tokens.get(port_id)
        if ring is None:
            ring = deque(maxlen=4)
            self._recent_tokens[port_id] = ring
        ring.append(token)

    # ------------------------------------------------------------------
    # SDMA-side entry points
    # ------------------------------------------------------------------
    def initiate(self, port_id: int, token: CollectiveSendToken):
        """Process a collective send token from the host (SDMA context)."""
        nic = self.nic
        yield from self.cpu("gb_initiate")
        port = nic.port(port_id)
        if not port.is_open:
            return
        if port.coll_send_token is not None:
            raise RuntimeError(
                f"port {port_id} on node {nic.node_id} initiated a collective "
                "while one is already in flight (one collective per port)"
            )
        token.owner_generation = port.generation
        port.coll_send_token = token
        self._remember(port_id, token)
        self.collectives_initiated += 1
        self.trace("initiate", port=port_id, kind=token.kind, seq=token.coll_seq)

        if token.kind in ("reduce", "allreduce"):
            yield from self._reduce_initiate(port, token)
        else:  # bcast
            yield from self._bcast_initiate(port, token)

    def sdma_work(self, item: tuple):
        """Dispatch collective work items queued to the SDMA inbox."""
        kind = item[0]
        if kind == "coll_send_reduce":
            _, port_id, token = item
            port = self.nic.port(port_id)
            if self._token_live(port, token):
                assert token.parent is not None
                yield from self._send_coll_packet(
                    token, token.parent, PacketType.COLL_REDUCE,
                    token.accumulator,
                )
                if token.kind == "reduce":
                    # Plain reduce: non-roots are done once their combined
                    # value is on its way up; only the root gets a result.
                    token.phase = "done"
                    self.nic.rdma_queue.put(
                        ("coll_complete", port_id, token)
                    )
        elif kind == "coll_bcast":
            yield from self._bcast_step(item[1], item[2])
        elif kind == "coll_resend":
            yield from self._resend(item[1], item[2], item[3], item[4])
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"collective engine: unknown SDMA work {item!r}")

    # -- reduction phase --------------------------------------------------
    def _reduce_initiate(self, port: NicPort, token: CollectiveSendToken):
        """Consume pre-recorded child contributions, proceed if all in."""
        nic = self.nic
        for child in sorted(token.reduce_pending):
            yield from self.cpu("gb_gather_check")
            if token.phase != "reduce" or not self._token_live(port, token):
                return
            slot = nic.connection(child[0]).coll_unexpected.get(child[1])
            if slot is not None and slot["kind"] == "reduce":
                del nic.connection(child[0]).coll_unexpected[child[1]]
                token.reduce_pending.discard(child)
                token.accumulator = REDUCE_OPS[token.op](
                    token.accumulator, slot["value"]
                )
                yield from self.cpu("coll_combine")
                if token.phase != "reduce" or not self._token_live(port, token):
                    return
        if token.phase == "reduce" and not token.reduce_pending:
            token.phase = "reduce_done"
            yield from self._reduce_all_in(port, token)

    def _reduce_all_in(self, port: NicPort, token: CollectiveSendToken):
        """All children combined (phase claimed as "reduce_done")."""
        if token.is_root:
            token.result = token.accumulator
            if token.kind == "allreduce" and token.children:
                token.phase = "bcast"
            else:
                token.phase = "done"
            self.nic.rdma_queue.put(("coll_complete", port.port_id, token))
        else:
            # Forward the combined value to the parent.  For allreduce we
            # then wait for the result to come back down.
            if token.kind == "allreduce":
                token.phase = "await_result"
            self.nic.sdma_inbox.put(
                ("coll_send_reduce", port.port_id, token)
            )
        yield from ()

    # -- broadcast phase ---------------------------------------------------
    def _bcast_initiate(self, port: NicPort, token: CollectiveSendToken):
        """Root starts sending immediately; non-roots check the record."""
        nic = self.nic
        if token.is_root:
            token.result = token.value
            # The root's value is final: complete, then forward.
            nic.rdma_queue.put(("coll_complete", port.port_id, token))
            yield from ()
            return
        yield from self.cpu("gb_gather_check")
        if not self._token_live(port, token) or token.phase != "await_value":
            return
        assert token.parent is not None
        slot = nic.connection(token.parent[0]).coll_unexpected.get(token.parent[1])
        if slot is not None and slot["kind"] == "bcast":
            del nic.connection(token.parent[0]).coll_unexpected[token.parent[1]]
            token.result = slot["value"]
            token.phase = "bcast"
            nic.rdma_queue.put(("coll_complete", port.port_id, token))

    def _bcast_step(self, port_id: int, token: CollectiveSendToken):
        """Send the value to the next child, then re-queue (SDMA)."""
        nic = self.nic
        port = nic.port(port_id)
        if not (
            port.is_open
            and port.generation == token.owner_generation
            and token.phase == "bcast"
        ):
            return
        child = token.children[token.bcast_index]
        yield from self._send_coll_packet(
            token, child, PacketType.COLL_BCAST, token.result
        )
        yield from self.cpu("gb_token_requeue")
        token.bcast_index += 1
        if token.bcast_index < len(token.children):
            nic.sdma_inbox.put(("coll_bcast", port_id, token))
        else:
            token.phase = "done"

    # ------------------------------------------------------------------
    # RDMA-side entry points
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet):
        """Combine/record an incoming collective message (RDMA context)."""
        nic = self.nic
        src: Endpoint = (packet.src_node, packet.src_port)
        value = packet.payload.get("value")

        yield from self.cpu("barrier_check")

        # ---- atomic decision + mutation ----
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open:
            if port is not None:
                port.closed_barrier_record.add(src)
            self.trace("closed_port_record", src=src, port=packet.dst_port)
            yield from self.cpu("barrier_record")
            return

        token = port.coll_send_token
        if token is not None and packet.ptype is PacketType.COLL_REDUCE:
            if token.phase == "reduce" and src in token.reduce_pending:
                token.reduce_pending.discard(src)
                token.accumulator = REDUCE_OPS[token.op](token.accumulator, value)
                all_in = not token.reduce_pending
                if all_in:
                    token.phase = "reduce_done"
                # ---- end of atomic block ----
                yield from self.cpu("coll_combine")
                if all_in:
                    yield from self._reduce_all_in(port, token)
                return
        elif token is not None and packet.ptype is PacketType.COLL_BCAST:
            expecting = (
                (token.kind == "allreduce" and token.phase == "await_result")
                or (token.kind == "bcast" and token.phase == "await_value")
            )
            if expecting and src == token.parent:
                token.result = value
                token.phase = "bcast"
                # ---- end of atomic block ----
                yield from self.complete(port.port_id, token)
                return

        # Unexpected: record the value in the per-endpoint slot.  The slot
        # holds at most one value: like the paper's one-bit barrier record,
        # correctness relies on "once a process initiates a [collective]
        # and is waiting for it to complete, it will not initiate another
        # one" (Section 3.1).  Reduce and bcast do not self-synchronize
        # the way barriers/allreduces do, so an application running
        # back-to-back bcasts must interpose synchronization; a violated
        # invariant is detected here rather than silently corrupting the
        # next collective.
        kind = "reduce" if packet.ptype is PacketType.COLL_REDUCE else "bcast"
        slot = nic.connection(packet.src_node).coll_unexpected.get(packet.src_port)
        if slot is not None:
            raise RuntimeError(
                f"node {nic.node_id}: second unexpected collective message "
                f"from {src} before the first was consumed -- the peer ran "
                "more than one collective ahead (missing synchronization)"
            )
        nic.connection(packet.src_node).coll_unexpected[packet.src_port] = {
            "kind": kind,
            "value": value,
            "dst_port": packet.dst_port,
        }
        self.unexpected_recorded += 1
        self.trace("recorded", src=src, kind=kind)
        yield from self.cpu("barrier_record")

    def complete(self, port_id: int, token: CollectiveSendToken):
        """Post the completion (with result) to the host (RDMA context)."""
        nic = self.nic
        port = nic.port(port_id)
        if not self._token_live(port, token):
            return
        yield from self.cpu("barrier_complete")
        buf = port.take_barrier_buffer()
        if buf is None:
            raise RuntimeError(
                f"node {nic.node_id} port {port_id}: collective completed "
                "but no completion buffer was provided "
                "(call gm_provide_barrier_buffer before initiating)"
            )
        yield from nic.rdma_engine.transfer(
            COMPLETION_DMA_BYTES + token.payload_bytes
        )
        yield from self.cpu("post_event")
        nic_complete_time = nic.sim.now
        port.coll_send_token = None
        port.return_send_token()
        nic.post_host_event(
            port,
            CollectiveCompletedEvent(
                port_id=port_id,
                coll_seq=token.coll_seq,
                kind=token.kind,
                result=token.result,
                nic_complete_time=nic_complete_time,
            ),
        )
        self.trace("complete", port=port_id, seq=token.coll_seq, kind=token.kind)
        if token.phase == "bcast" and token.children:
            token.bcast_index = 0
            nic.sdma_inbox.put(("coll_bcast", port_id, token))
        elif token.phase == "bcast":
            token.phase = "done"

    # ------------------------------------------------------------------
    # Transmission (same reliability modes as barrier packets)
    # ------------------------------------------------------------------
    def _send_coll_packet(
        self,
        token: CollectiveSendToken,
        endpoint: Endpoint,
        ptype: PacketType,
        value,
        is_resend: bool = False,
    ):
        """Prepare and queue one collective packet (SDMA context)."""
        nic = self.nic
        dst_node, dst_port = endpoint
        yield from self.cpu("barrier_packet_prep")

        if nic.params.local_barrier_optimization and dst_node == nic.node_id:
            packet = nic.make_packet(
                ptype, dst_node=dst_node, dst_port=dst_port,
                src_port=token.src_port, seqno=token.coll_seq,
                payload_bytes=0, payload={"value": value},
            )
            token.sent_to.append((endpoint, ptype.value))
            nic.rdma_queue.put(("barrier_rx", packet))
            return

        conn = nic.connection(dst_node)
        mode = nic.params.barrier_reliability
        if mode is BarrierReliability.SEPARATE:
            seqno = conn.assign_barrier_seqno(token.src_port)
        elif mode is BarrierReliability.TOKEN_PER_DESTINATION:
            seqno = conn.assign_seqno()
        else:
            seqno = token.coll_seq

        packet = nic.make_packet(
            ptype, dst_node=dst_node, dst_port=dst_port,
            src_port=token.src_port, seqno=seqno,
            payload_bytes=token.payload_bytes, payload={"value": value},
        )
        token.sent_to.append((endpoint, ptype.value))

        if mode is BarrierReliability.SEPARATE:
            conn.record_barrier_sent(
                BarrierUnacked(
                    src_port=token.src_port, barrier_seqno=seqno, packet=packet
                )
            )
            if conn.barrier_retransmit_timer is None:
                nic.manage_barrier_retransmit_timer(conn)
        elif mode is BarrierReliability.TOKEN_PER_DESTINATION:
            conn.record_sent(SentEntry(seqno=seqno, packet=packet, token=None))
            nic.ensure_retransmit_timer(conn)

        if is_resend:
            self.resends += 1
        nic.send_queue.put((packet, False))
        self.trace("send", dst=endpoint, type=ptype.value, seq=seqno)

    # ------------------------------------------------------------------
    # Closed-port recovery (shares the barrier REJECT mechanism)
    # ------------------------------------------------------------------
    def on_reject(self, packet: Packet):
        """A peer rejected one of our collective messages; resend while
        the initiating port is still the same generation (RECV ctx)."""
        nic = self.nic
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open:
            return
        rejector: Endpoint = (packet.src_node, packet.src_port)
        ring = self._recent_tokens.get(packet.dst_port, ())
        for token in reversed(ring):
            if token.owner_generation != port.generation:
                continue
            matches = [
                (ep, ptype_val)
                for (ep, ptype_val) in token.sent_to
                if ep == rejector
            ]
            if not matches:
                continue
            conn = nic.connection(rejector[0])
            conn.barrier_unacked = [
                e for e in conn.barrier_unacked
                if not (
                    e.src_port == token.src_port
                    and e.packet.dst_port == rejector[1]
                )
            ]
            nic.manage_barrier_retransmit_timer(conn)
            for _, ptype_val in matches[-1:]:
                nic.sdma_inbox.put(
                    ("coll_resend", packet.dst_port, token, rejector,
                     PacketType(ptype_val))
                )
            break
        yield from ()

    def _resend(self, port_id, token, endpoint, ptype):
        port = self.nic.port(port_id)
        if not port.is_open or port.generation != token.owner_generation:
            return
        if ptype is PacketType.COLL_REDUCE:
            value = token.accumulator
        else:
            value = token.result
        yield from self._send_coll_packet(
            token, endpoint, ptype, value, is_resend=True
        )
