"""SDMA state machine.

"The SDMA state machine polls for new send tokens and queues them on the
queue for the appropriate connection.  The SDMA state machine is also
responsible for initiating a DMA to transfer data from the host memory to
the NIC transmit buffers and to prepare the packet for transmission."
(Section 4.1.)

Work items arriving on ``nic.sdma_inbox``:

``("token", port_id, token)``
    A fresh host send token (ordinary :class:`~repro.gm.tokens.SendToken`
    or a :class:`~repro.gm.tokens.BarrierSendToken` initiating a barrier
    or NIC collective).
``("retransmit", remote_node, entry)``
    Go-back-N retransmission of a sent-list entry: GM "push[es] the
    contents of the sent list back on the send queue", which re-DMAs and
    re-prepares the packet.
``("firmware", step, *args)``
    Barrier firmware work delegated by the barrier engine: ``step`` is
    one of its generator methods (Section 5.2: barrier send tokens are
    repeatedly updated and re-queued).
"""

from __future__ import annotations

from repro.gm.tokens import SendToken
from repro.network.packet import PacketType
from repro.nic.mcp.connection import SentEntry
from repro.nic.mcp.machine import StateMachine


class SdmaMachine(StateMachine):
    """The SDMA state machine (see module docstring)."""
    machine_name = "sdma"

    def _run(self):
        nic = self.nic
        inbox = nic.sdma_inbox
        while True:
            item = yield inbox  # the Store is its own get() waitable
            kind = item[0]
            if kind == "token":
                _, port_id, token = item
                if token.is_barrier:
                    yield from nic.barrier_engine.initiate(port_id, token)
                    continue
                # SDMA alone holds the token until it is on a sent list
                # or fake-acked (no yield between that and the return).
                nic.sdma_token = token
                if token.is_multicast:
                    yield from self._process_multicast_token(port_id, token)
                else:
                    yield from self._process_send_token(port_id, token)
                nic.sdma_token = None
            elif kind == "retransmit":
                _, remote_node, entry = item
                yield from self._retransmit(remote_node, entry)
            elif kind == "firmware":
                yield from item[1](*item[2:])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"SDMA: unknown work item {item!r}")

    # ------------------------------------------------------------------
    def _fake_ack(self, token, dst_node: int) -> None:
        """Complete a send toward a declared-dead peer host-side.

        The token returns and the usual ``SentEvent`` posts, exactly as a
        cumulative ACK would have delivered them (the data dies with the
        peer).  Without this a send issued *after* suspicion would wait
        forever: the retransmit path is fenced for suspects, so no ACK
        and no alarm would ever release the blocked host process.
        """
        nic = self.nic
        port = nic.sent_port(token)
        if port is not None:
            nic.post_sent(port, token)
        self.trace("suspect_fake_ack", key=token.token_id, dst=dst_node,
                   ctx=token.ctx)

    def _process_send_token(self, port_id: int, token: SendToken):
        """Ordinary reliable send: DMA payload in, prepare, hand to SEND."""
        nic = self.nic
        yield self.charge["token_process"]
        if token.dst_node in nic.suspected_peers:
            self._fake_ack(token, token.dst_node)
            return
        conn = nic.connections[token.dst_node]

        # Stage the payload into a transmit buffer (blocks if pool empty;
        # the Resource is its own request() waitable).
        yield nic.tx_buffers
        yield self.charge["dma_setup"]
        yield from nic.sdma_engine.transfer(token.size_bytes, ctx=token.ctx)
        yield self.charge["packet_prep"]

        wire_type = token.wire_type or PacketType.DATA
        packet = nic.make_packet(
            wire_type,
            dst_node=token.dst_node,
            dst_port=token.dst_port,
            src_port=token.src_port,
            payload_bytes=token.size_bytes,
            # One-sided packets carry their descriptor verbatim; ordinary
            # sends wrap the application body.
            payload=(
                dict(token.payload)
                if wire_type is not PacketType.DATA
                else {"body": token.payload}
            ),
            ctx=token.ctx.child() if token.ctx is not None else None,
        )
        yield self.charge["send_queue_manage"]
        # The sequence number is taken after the last yield, with no
        # simulated time before the entry is recorded: a NIC crash at
        # any charge above leaves no number unsent and unrecorded.
        token.seqno = packet.seqno = conn.assign_seqno()
        conn.record_sent(SentEntry(seqno=token.seqno, packet=packet, token=token))
        nic.ensure_retransmit_timer(conn)
        self.trace("prepared", key=packet.packet_id, dst=token.dst_node,
                   seq=token.seqno, ctx=packet.ctx)
        nic.send_queue.put((packet, True))  # True: uses a tx buffer

    def _process_multicast_token(self, port_id: int, token):
        """NIC-assisted multidestination send (the paper's reference [2]):
        one host DMA, one packet prepared and queued per destination."""
        nic = self.nic
        yield self.charge["token_process"]
        live = [
            dest for dest in token.destinations
            if dest[0] not in nic.suspected_peers
        ]
        if not live:
            self._fake_ack(token, token.destinations[-1][0])
            return
        # Stage the payload once.
        yield nic.tx_buffers  # request()
        yield self.charge["dma_setup"]
        yield from nic.sdma_engine.transfer(token.size_bytes, ctx=token.ctx)
        token.remaining_acks = len(live)
        last_index = len(live) - 1
        for i, (dst_node, dst_port) in enumerate(live):
            yield self.charge["packet_prep"]
            conn = nic.connections[dst_node]
            packet = nic.make_packet(
                PacketType.DATA,
                dst_node=dst_node,
                dst_port=dst_port,
                src_port=token.src_port,
                payload_bytes=token.size_bytes,
                payload={"body": token.payload},
                ctx=token.ctx.child() if token.ctx is not None else None,
            )
            yield self.charge["send_queue_manage"]
            # Numbered after the last yield, as in _process_send_token.
            packet.seqno = seqno = conn.assign_seqno()
            conn.record_sent(SentEntry(seqno=seqno, packet=packet, token=token))
            nic.ensure_retransmit_timer(conn)
            # The SRAM buffer is released when the *last* replica has been
            # handed to the wire.
            nic.send_queue.put((packet, i == last_index))
        self.trace("multicast_fanout", key=token.token_id,
                   fanout=len(token.destinations))

    def _retransmit(self, remote_node: int, entry: SentEntry):
        """Re-DMA and re-send one sent-list entry (if still unacked)."""
        nic = self.nic
        conn = nic.connections[remote_node]
        if entry not in conn.sent_list:
            return  # ACKed while the retransmit work item was queued.
        yield self.charge["token_process"]
        yield nic.tx_buffers  # request()
        yield self.charge["dma_setup"]
        yield from nic.sdma_engine.transfer(
            entry.packet.payload_bytes, ctx=entry.packet.ctx
        )
        yield self.charge["packet_prep"]
        entry.retransmits += 1
        conn.packets_retransmitted += 1
        packet = nic.clone_packet(entry.packet)
        self.trace("retransmit", key=packet.packet_id, dst=remote_node,
                   seq=entry.seqno, ctx=packet.ctx)
        nic.send_queue.put((packet, True))
