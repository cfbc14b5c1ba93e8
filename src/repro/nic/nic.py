"""The NIC: hardware resources, port/connection state, MCP machines.

One :class:`Nic` per node (the paper's system model allows several per
node; the cluster builder wires one by default and tests exercise the
general shape through port multiplexing, which is what the paper's
concurrent-barrier design issue is about).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.gm.constants import MAX_PORTS, BarrierReliability
from repro.gm.events import GmEvent, PeerFailureEvent, SentEvent
from repro.gm.port import NicPort
from repro.gm.tokens import BarrierSendToken, SendToken
from repro.network.fabric import Network
from repro.network.packet import Packet, PacketType
from repro.nic.dma import DmaEngine
from repro.nic.lanai import LanaiModel
from repro.nic.mcp.connection import Connection
from repro.nic.mcp.rdma import RdmaMachine
from repro.nic.mcp.recv import RecvMachine
from repro.nic.mcp.sdma import SdmaMachine
from repro.nic.mcp.send import SendMachine
from repro.sim.engine import Simulator
from repro.sim.primitives import HoldTable, Resource, Store
from repro.sim.tracing import TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nic_barrier import NicBarrierEngine


class RetransmitLimitExceeded(RuntimeError):
    """A reliability stream gave up: an unacked packet was retransmitted
    ``NicParams.max_retransmits`` times without progress.

    This is the *alarm* half of the give-up-or-recover contract: an
    injected fault (or a real protocol bug) that makes recovery
    impossible must surface as a loud error, never a silent hang.
    """

    def __init__(self, node_id: int, remote_node: int, stream: str,
                 seqno: int, retransmits: int) -> None:
        super().__init__(
            f"nic{node_id}: {stream} stream to node {remote_node} gave up "
            f"on seqno {seqno} after {retransmits} retransmissions "
            "(peer unreachable or reliability protocol wedged)"
        )
        self.node_id = node_id
        self.remote_node = remote_node
        #: Alias for :attr:`remote_node`: the peer this stream gave up on,
        #: so crash hangs are attributable straight off the exception.
        self.peer = remote_node
        self.stream = stream
        self.seqno = seqno
        self.retransmits = retransmits
        #: Flight-recorder ring at the moment of the alarm.  Always a
        #: list (empty without a tracer), never None.
        self.flight_records: list = []


@dataclass(frozen=True)
class NicParams:
    """NIC configuration knobs (beyond the LANai cost model)."""

    #: PCI bus: 32-bit/33 MHz of the testbed era.
    pci_bandwidth_mbps: float = 133.0
    #: Per-DMA bus-transaction overhead.
    pci_setup_us: float = 0.9
    #: SRAM packet-buffer pools (buffers each).
    tx_buffers: int = 16
    rx_buffers: int = 32
    #: Regular-stream go-back-N retransmission timeout.
    retransmit_timeout_us: float = 1500.0
    #: Give-up threshold for both reliability streams: when one entry has
    #: been retransmitted this many times without being acknowledged the
    #: NIC raises :class:`RetransmitLimitExceeded` instead of retrying
    #: forever.  None disables the alarm (the pre-hardening behaviour).
    max_retransmits: Optional[int] = 64
    #: Delayed-ACK coalescing window (GM acks lazily / piggybacked rather
    #: than per packet).  0 acks every packet immediately.
    ack_delay_us: float = 12.0
    #: SEPARATE-mode barrier retransmission timeout.
    barrier_retransmit_timeout_us: float = 800.0
    #: How barrier messages are protected (Section 4.4).
    barrier_reliability: BarrierReliability = BarrierReliability.UNRELIABLE
    #: Section 3.4 optimization: barrier "messages" between two ports of
    #: the *same* NIC skip the wire and just set the local flag.
    local_barrier_optimization: bool = False
    #: Failure-detector heartbeat period.  None (the default) builds the
    #: NIC *without* a detector, keeping clean runs bit-identical to
    #: pre-detector traces.  Setting it arms the detector for the whole
    #: run (bound such runs with ``until=``/``max_events=``); fault plans
    #: with crashes arm it automatically over a bounded window instead.
    heartbeat_us: Optional[float] = None
    #: Silence window after which a peer is declared failed (fail-stop).
    #: Defaults to ``8 * heartbeat_us`` when only the heartbeat is set.
    suspect_after: Optional[float] = None

    def with_(self, **changes) -> "NicParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class ConnectionTable(dict):
    """``remote node id -> Connection`` of one NIC, each connection
    created on its first lookup (a subscript, no Python call once it
    exists); ``get`` and iteration see only the connections made."""

    __slots__ = ("sim", "node_id", "num_ports")

    def __init__(self, sim: Simulator, node_id: int, num_ports: int) -> None:
        super().__init__()
        self.sim = sim
        self.node_id = node_id
        self.num_ports = num_ports

    def __missing__(self, remote_node: int) -> Connection:
        conn = self[remote_node] = Connection(
            self.sim, self.node_id, remote_node, self.num_ports
        )
        return conn


class Nic:
    """A programmable LANai NIC attached to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        model: LanaiModel,
        network: Network,
        params: Optional[NicParams] = None,
        tracer: Optional[Tracer] = None,
        num_ports: int = MAX_PORTS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.model = model
        self.network = network
        self.params = params or NicParams()
        self.tracer = tracer
        #: Category of this NIC's trace records, built once.
        self.trace_category = f"nic{node_id}"
        self.num_ports = num_ports

        # -- hardware resources ---------------------------------------------
        self.cpu_resource = Resource(sim, 1, name=f"nic{node_id}.cpu")
        #: operation -> its LANai charge, built on first use and shared
        #: by every machine of this NIC (``Firmware.charge``).
        self.lanai_charges: HoldTable = HoldTable(
            self.cpu_resource, model.costs.__getitem__
        )
        self.pci_bus = Resource(sim, 1, name=f"nic{node_id}.pci")
        self.sdma_engine = DmaEngine(
            sim, self.pci_bus, self.params.pci_bandwidth_mbps,
            self.params.pci_setup_us, name=f"nic{node_id}.sdma",
        )
        self.rdma_engine = DmaEngine(
            sim, self.pci_bus, self.params.pci_bandwidth_mbps,
            self.params.pci_setup_us, name=f"nic{node_id}.rdma",
        )
        self.sdma_engine.tracer = tracer
        self.rdma_engine.tracer = tracer
        self._make_buffer_pools()

        # -- protocol state ----------------------------------------------------
        self.ports: Dict[int, NicPort] = {
            pid: NicPort(sim, node_id, pid) for pid in range(num_ports)
        }
        #: remote node id -> the connection state toward it, created on
        #: first lookup: ``nic.connections[remote_node]``.
        self.connections: ConnectionTable = ConnectionTable(
            sim, node_id, num_ports
        )
        #: Give-up alarms raised by the reliability streams (each entry is
        #: the :class:`RetransmitLimitExceeded` that was raised).
        self.alarms: list = []
        #: port_id -> host-event listeners (the MCP progress hook: called
        #: synchronously, after the event lands in the port's event ring).
        self._host_event_listeners: Dict[int, list] = {}

        # -- inter-machine queues ---------------------------------------------
        self.sdma_inbox: Store = Store(sim, name=f"nic{node_id}.sdma_inbox")
        self.send_queue: Store = Store(sim, name=f"nic{node_id}.send_q")
        self.recv_queue: Store = Store(sim, name=f"nic{node_id}.recv_q")
        self.rdma_queue: Store = Store(sim, name=f"nic{node_id}.rdma_q")

        # -- fabric attachment ---------------------------------------------------
        self.tx_channel = network.attach_nic(node_id, self)

        # -- the barrier extension (the paper's contribution) ---------------------
        from repro.core.nic_barrier import NicBarrierEngine

        #: Runs NIC barriers and the NIC reduce/allreduce/bcast (the
        #: Section 8 extension).
        self.barrier_engine: "NicBarrierEngine" = NicBarrierEngine(self)

        # -- the four MCP state machines -------------------------------------------
        self._start_machines()

        # -- fail-stop state ---------------------------------------------------
        #: Set by :meth:`crash`: a crashed NIC neither receives nor injects.
        self.crashed = False
        #: The host send token SDMA is working on: taken from its inbox,
        #: not yet on a sent list or fake-acked.  A crash kills SDMA with
        #: it in hand, and :meth:`restart` returns it to its port.
        self.sdma_token = None
        #: Peers declared failed by the detector (monotone suspect set;
        #: the RECV machine's epoch fence drops their late packets).
        self.suspected_peers: set = set()
        #: Heartbeat failure detector; None unless ``heartbeat_us`` is
        #: configured or a crash-bearing fault plan arms one.
        self.detector = None
        if self.params.heartbeat_us is not None:
            from repro.nic.detector import FailureDetector

            suspect_after = self.params.suspect_after
            if suspect_after is None:
                suspect_after = 8.0 * self.params.heartbeat_us
            self.detector = FailureDetector(
                self, self.params.heartbeat_us, suspect_after
            )
            self.detector.arm()

        #: Time from a packet's first transmission to its (eventual) ACK,
        #: observed only for packets that needed retransmission -- the
        #: per-NIC time-to-recover distribution.  A null instrument when
        #: the registry is disabled.
        self.recovery_hist = self.sim.metrics.histogram(
            f"nic{self.node_id}.recovery_us"
        )
        if self.sim.probing:
            self._declare_probes()

    def _declare_probes(self) -> None:
        """Declare this NIC's quantities in the simulator's probe table.

        Every getter reads a plain attribute the NIC keeps anyway
        (``Resource.busy_us``, ``len(Store)``, connection counters) --
        never a metrics instrument, which is a null object when the
        metrics flag is off.  Nothing here runs until a view reads it.
        """
        probe = self.sim.probe
        prefix = f"nic{self.node_id}"
        cpu = self.cpu_resource
        # busy_us is monotone; sampled as a counter the per-interval
        # rate is the LANai processor's utilization over that window.
        probe(f"{prefix}.cpu.busy_us", lambda: cpu.busy_us,
              "counter", f"{prefix}.cpu", "frac")
        probe(f"{prefix}.cpu.utilization", cpu.utilization,
              "gauge", f"{prefix}.cpu", "frac")
        for store_name, store in (
            ("sdma_inbox", self.sdma_inbox),
            ("send_q", self.send_queue),
            ("recv_q", self.recv_queue),
            ("rdma_q", self.rdma_queue),
        ):
            probe(f"{prefix}.{store_name}.depth", lambda s=store: len(s),
                  "gauge", f"{prefix}.cpu", "items")
            probe(f"{prefix}.{store_name}.depth_hw", lambda s=store: s.max_depth,
                  "gauge", f"{prefix}.cpu", "items")
        # DMA backlog: requests waiting on (or holding) the shared PCI
        # bus -- the contention signal behind the pci_wait_us histogram.
        bus = self.pci_bus
        probe(f"{prefix}.dma.backlog", lambda: bus.queued + bus.in_use,
              "gauge", f"{prefix}.dma", "reqs")
        connections = self.connections
        # Recovery-path counters (drops are counted on the links; these
        # are the send, receive and acknowledge sides of the same story).
        for name, attr in (
            ("retransmits", "packets_retransmitted"),
            ("packets_acked", "packets_acked"),
            ("duplicates_dropped", "duplicates_dropped"),
            ("future_dropped", "future_dropped"),
            ("nacks_sent", "nacks_sent"),
        ):
            probe(f"{prefix}.{name}",
                  lambda a=attr: sum(getattr(c, a) for c in connections.values()),
                  "counter", prefix, "pkts/us")
        for name, attr in (
            ("gbn_window_hw", "sent_list_high_water"),
            ("barrier_window_hw", "barrier_unacked_high_water"),
        ):
            probe(f"{prefix}.{name}",
                  lambda a=attr: max(
                      (getattr(c, a) for c in connections.values()), default=0
                  ),
                  "gauge", prefix, "pkts")
        probe(f"{prefix}.retransmit_alarms", lambda: len(self.alarms),
              "gauge", prefix, "alarms")
        probe(f"{prefix}.peers_suspected", lambda: len(self.suspected_peers),
              "gauge", prefix, "peers")

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet) -> None:
        """Wire delivery point (the fabric calls this)."""
        if self.crashed:
            return
        if self.detector is not None:
            self.detector.saw(packet.src_node)
        self.recv_queue.put(packet)

    def inject(self, packet: Packet) -> None:
        """Hand a prepared packet to the transmit channel."""
        if self.crashed:
            return
        if self.detector is not None:
            self.detector.sent(packet.dst_node)
        packet.injected_at = self.sim.now
        self.tx_channel.send(packet)

    # ------------------------------------------------------------------
    # Factories and accessors
    # ------------------------------------------------------------------
    def port(self, port_id: int) -> NicPort:
        """The port structure for ``port_id`` (raises if out of range)."""
        try:
            return self.ports[port_id]
        except KeyError:
            raise ValueError(
                f"NIC {self.node_id} has no port {port_id} "
                f"(0..{self.num_ports - 1})"
            ) from None

    def make_packet(
        self,
        ptype: PacketType,
        dst_node: int,
        dst_port: int,
        src_port: int,
        seqno: int = 0,
        payload_bytes: int = 0,
        payload: Optional[dict] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Packet:
        """Build a packet with its source route stamped."""
        return Packet(
            ptype=ptype,
            src_node=self.node_id,
            src_port=src_port,
            dst_node=dst_node,
            dst_port=dst_port,
            seqno=seqno,
            payload_bytes=payload_bytes,
            payload=payload or {},
            route=self.network.route_for(self.node_id, dst_node),
            ctx=ctx,
        )

    def clone_packet(self, packet: Packet) -> Packet:
        """Fresh copy for retransmission (routes are consumed in flight).

        The clone keeps the original's trace id but bumps the attempt
        counter and resets the hop count, so a retransmitted packet stays
        inside the same span tree while remaining distinguishable.
        """
        return Packet(
            ptype=packet.ptype,
            src_node=packet.src_node,
            src_port=packet.src_port,
            dst_node=packet.dst_node,
            dst_port=packet.dst_port,
            seqno=packet.seqno,
            payload_bytes=packet.payload_bytes,
            payload=dict(packet.payload),
            route=self.network.route_for(self.node_id, packet.dst_node),
            ctx=packet.ctx.retry() if packet.ctx is not None else None,
        )

    # ------------------------------------------------------------------
    # Host-facing entry points (called by the GM API layer)
    # ------------------------------------------------------------------
    def post_token(self, port_id: int, token) -> None:
        """A host process queued a send token.

        The token becomes visible to the SDMA machine after its polling
        detection latency -- the NIC half of the paper's ``Send`` term.
        """
        token.queued_at = self.sim.now
        self.sim.schedule(
            self.model.costs["poll_detect"],
            self.sdma_inbox.put,
            ("token", port_id, token),
        )

    def post_host_event(self, port: NicPort, event: GmEvent) -> None:
        """Queue an event into the port's host-visible event ring.

        Registered host-event listeners for the port fire afterwards --
        the progress hook the non-blocking schedule engine uses to track
        liveness without polling the queue itself."""
        event.posted_at = self.sim.now
        port.event_queue.put(event)
        listeners = self._host_event_listeners.get(port.port_id)
        if listeners:
            for listener in tuple(listeners):
                listener(event)

    def sent_port(self, token) -> Optional[NicPort]:
        """The open port a completed send returns ``token`` to, or None.

        A send completes when its packet is acknowledged or fake-acked
        toward a dead peer; a multicast token completes with the last
        of its replicas, each call counting one down (one fake-acked
        before its fan-out has no count yet and completes at once).
        The caller charges what posting costs it, then calls
        :meth:`post_sent`.
        """
        if token.is_multicast:
            token.remaining_acks -= 1
            if token.remaining_acks > 0:
                return None
        port = self.ports.get(token.src_port)
        if port is not None and port.is_open:
            return port
        return None

    def post_sent(self, port: NicPort, token) -> None:
        """Return ``token`` to ``port`` and post its :class:`SentEvent`,
        naming the destination (a multicast's last) it completed on."""
        if token.is_multicast:
            dst_node, dst_port = token.destinations[-1]
        else:
            dst_node, dst_port = token.dst_node, token.dst_port
        port.return_send_token()
        self.post_host_event(
            port,
            SentEvent(
                port_id=port.port_id,
                token_id=token.token_id,
                dst_node=dst_node,
                dst_port=dst_port,
            ),
        )

    def add_host_event_listener(self, port_id: int, listener) -> None:
        """Register ``listener(event)`` to run on every host event the
        MCP machines post to ``port_id``'s event ring."""
        self._host_event_listeners.setdefault(port_id, []).append(listener)

    def on_port_open(self, port_id: int) -> None:
        """Hook for the driver: replay closed-port barrier rejections."""
        self.barrier_engine.on_port_open(port_id)

    def on_port_close(self, port_id: int) -> None:
        """Hook for the driver: drop every piece of per-port reliability
        state a dead endpoint leaves behind.

        Beyond abandoning the port's pending barrier retransmits
        (Section 3.2) this clears the barrier and collective unexpected
        records kept *for* the port -- otherwise a
        reused port could match a stale record from the previous owner --
        and cancels the barrier retransmit timer if the unacked list
        emptied, so no timer keeps firing for an abandoned stream.
        """
        for conn in self.connections.values():
            conn.drop_barrier_unacked_for_port(port_id)
            conn.clear_unexpected_for_port(port_id)
            if not conn.barrier_unacked and conn.barrier_retransmit_timer is not None:
                self.sim.cancel(conn.barrier_retransmit_timer)
                conn.barrier_retransmit_timer = None

    # ------------------------------------------------------------------
    # Retransmission timers
    # ------------------------------------------------------------------
    def ensure_retransmit_timer(self, conn: Connection) -> None:
        """Start the go-back-N timer if unacked packets exist."""
        if conn.retransmit_timer is None and conn.sent_list:
            conn.retransmit_timer = self.sim.schedule_timer(
                self.params.retransmit_timeout_us, self._on_retransmit_timeout, conn
            )

    def manage_retransmit_timer(self, conn: Connection) -> None:
        """Cancel/restart the go-back-N timer after ACK/NACK processing."""
        if conn.retransmit_timer is not None:
            self.sim.cancel(conn.retransmit_timer)
            conn.retransmit_timer = None
        self.ensure_retransmit_timer(conn)

    def _raise_alarm(self, conn: Connection, stream: str, entry) -> None:
        """Give up on a wedged reliability stream: record + raise."""
        alarm = RetransmitLimitExceeded(
            self.node_id,
            conn.remote_node,
            stream,
            entry.seqno if stream == "regular" else entry.barrier_seqno,
            entry.retransmits,
        )
        self.alarms.append(alarm)
        if self.tracer is not None:
            self.tracer.record(
                self.trace_category, "reliability.alarm",
                stream=stream, peer=conn.remote_node,
                retransmits=entry.retransmits,
                ctx=getattr(entry.packet, "ctx", None),
            )
            # Black box: attach the flight-recorder ring so whoever
            # catches the alarm (soak harness, campaign executor) can
            # ship the last-K-records dump back as data.
            if self.tracer.flight is not None:
                alarm.flight_records = self.tracer.flight.snapshot()
        raise alarm

    def _on_retransmit_timeout(self, conn: Connection) -> None:
        conn.retransmit_timer = None
        if self.crashed or conn.remote_node in self.suspected_peers:
            return
        if not conn.sent_list:
            return
        limit = self.params.max_retransmits
        for entry in list(conn.sent_list):
            if limit is not None and entry.retransmits >= limit:
                self._raise_alarm(conn, "regular", entry)
            self.sdma_inbox.put(("retransmit", conn.remote_node, entry))
        self.ensure_retransmit_timer(conn)

    # ------------------------------------------------------------------
    # Delayed ACKs
    # ------------------------------------------------------------------
    def schedule_ack(self, conn: Connection) -> None:
        """Owe the peer a cumulative ACK; coalesce within the delay window."""
        if self.params.ack_delay_us <= 0:
            self.rdma_queue.put(("ack_gen", conn.remote_node))
            return
        if conn.ack_timer is None:
            conn.ack_timer = self.sim.schedule_timer(
                self.params.ack_delay_us, self._on_ack_timer, conn
            )

    def _on_ack_timer(self, conn: Connection) -> None:
        conn.ack_timer = None
        self.rdma_queue.put(("ack_gen", conn.remote_node))

    def manage_barrier_retransmit_timer(self, conn: Connection) -> None:
        """Restart/cancel the SEPARATE-mode barrier timer."""
        if conn.barrier_retransmit_timer is not None:
            self.sim.cancel(conn.barrier_retransmit_timer)
            conn.barrier_retransmit_timer = None
        if conn.barrier_unacked:
            conn.barrier_retransmit_timer = self.sim.schedule_timer(
                self.params.barrier_retransmit_timeout_us,
                self._on_barrier_retransmit_timeout,
                conn,
            )

    def _on_barrier_retransmit_timeout(self, conn: Connection) -> None:
        conn.barrier_retransmit_timer = None
        if self.crashed or conn.remote_node in self.suspected_peers:
            return
        if not conn.barrier_unacked:
            return
        limit = self.params.max_retransmits
        for entry in list(conn.barrier_unacked):
            if limit is not None and entry.retransmits >= limit:
                self._raise_alarm(conn, "barrier", entry)
            entry.retransmits += 1
            conn.packets_retransmitted += 1
            self.send_queue.put((self.clone_packet(entry.packet), False))
        self.manage_barrier_retransmit_timer(conn)

    # ------------------------------------------------------------------
    # Fail-stop failure handling
    # ------------------------------------------------------------------
    def on_peer_suspected(self, peer: int) -> None:
        """The failure detector declared ``peer`` failed (fail-stop).

        Runs atomically at the detection instant (no CPU charges -- the
        LANai acts on suspicion within one firmware dispatch): both
        reliability streams toward the suspect are abandoned with their
        send tokens fake-acked back to the host, every in-flight barrier
        and collective is aborted, and every open port receives exactly
        one :class:`~repro.gm.events.PeerFailureEvent` (the abort path
        posts ctx-carrying events; this fans generic ones out to the
        remaining ports so blocked receives wake up).
        """
        if self.crashed or peer in self.suspected_peers:
            return
        self.suspected_peers.add(peer)
        if self.tracer is not None:
            self.tracer.record(
                self.trace_category, "peer.failed", peer=peer
            )
        conn = self.connections.get(peer)
        if conn is not None:
            self._abandon_connection(conn)
        suspects = frozenset({peer})
        notified = self.barrier_engine.abort_suspects(suspects)
        for port in self.ports.values():
            if port.is_open and port.port_id not in notified:
                self.post_host_event(
                    port,
                    PeerFailureEvent(port_id=port.port_id, suspects=suspects),
                )

    def _abandon_connection(self, conn: Connection) -> None:
        """Tear down the reliability streams toward a dead peer.

        Pending sends are *fake-acked*: their tokens return to the host
        with the usual :class:`SentEvent`, exactly as a cumulative ACK
        would have returned them.  The data is lost with the peer, but no
        port leaks a send token -- the shrink protocol immediately needs
        the full send budget.
        """
        conn.cancel_timers()
        entries, conn.sent_list = conn.sent_list, []
        conn.barrier_unacked = []
        conn.nack_outstanding = False
        for entry in entries:
            token = entry.token
            if token is not None:
                port = self.sent_port(token)
                if port is not None:
                    self.post_sent(port, token)

    def crash(self) -> None:
        """Fail-stop death of this NIC (the LANai stops executing).

        Open ports first learn their own node is down -- a ``NicCrash``
        keeps the host alive, and its blocked processes must wake with a
        :class:`PeerFailure` naming the local node -- then every machine
        stops and all pending protocol timers die with the firmware.
        """
        if self.crashed:
            return
        for port in self.ports.values():
            if port.is_open:
                self.post_host_event(
                    port,
                    PeerFailureEvent(
                        port_id=port.port_id,
                        suspects=frozenset({self.node_id}),
                    ),
                )
        self.crashed = True
        if self.tracer is not None:
            self.tracer.record(self.trace_category, "nic.crash")
        if self.detector is not None:
            self.detector.stop()
        for machine in self.machines:
            machine.kill()
        for conn in self.connections.values():
            conn.cancel_timers()

    def restart(self) -> None:
        """Bring a crashed NIC back with fresh firmware state.

        The four MCP machines restart from scratch and both SRAM buffer
        pools start free: the killed machines' claims died with them,
        and queued work still carrying a buffer -- a prepared packet on
        the send queue, an accepted message or one-sided packet on the
        RDMA queue -- is dropped, its data lost.  So is the send SDMA
        was working on, but its send token goes back to its port.
        Connection state is *not* recovered and peers keep this node
        suspect -- rejoin (a group-membership grow) is out of scope, so
        a restarted node can open ports and talk to nodes that never
        suspected it, but not rejoin a shrunken communicator.
        """
        if not self.crashed:
            return
        self.crashed = False
        self._make_buffer_pools()
        token, self.sdma_token = self.sdma_token, None
        if token is not None:
            port = self.ports.get(token.src_port)
            if port is not None and port.is_open:
                port.return_send_token()
        self.send_queue.discard(lambda item: item[1])
        self.rdma_queue.discard(lambda item: item[0] in ("deliver", "onesided_rx"))
        self._start_machines()
        if self.tracer is not None:
            self.tracer.record(self.trace_category, "nic.restart")

    # ------------------------------------------------------------------
    def _make_buffer_pools(self) -> None:
        #: SRAM packet-buffer pools.  SDMA claims a transmit buffer with
        #: ``yield tx_buffers.request()`` and SEND frees it once the
        #: packet is on the wire; RECV claims a receive buffer with
        #: ``rx_buffers.try_request()`` (a full pool NACKs) and RDMA
        #: frees it after the DMA to the host.
        self.tx_buffers = Resource(
            self.sim, self.params.tx_buffers, name=f"nic{self.node_id}.tx"
        )
        self.rx_buffers = Resource(
            self.sim, self.params.rx_buffers, name=f"nic{self.node_id}.rx"
        )

    def _start_machines(self) -> None:
        #: The four MCP machines' processes (a machine object itself is
        #: referenced by its running generator alone).
        self.machines = tuple(
            machine(self).process
            for machine in (SdmaMachine, SendMachine, RecvMachine, RdmaMachine)
        )

    def close(self) -> None:
        """End of life (``Cluster.close``): close the machines, drop the
        listeners, cut the references back to this NIC."""
        for machine in self.machines:
            machine.close()
        self._host_event_listeners.clear()
        self.barrier_engine.nic = None
        if self.detector is not None:
            self.detector.nic = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Nic node={self.node_id} model={self.model.name}>"
