"""Links and unidirectional channels.

A :class:`Link` is a full-duplex Myrinet cable: two independent
:class:`Channel` objects, one per direction, matching the paper's
assumption that "NICs have separate receive and transmit channels to the
network, so that one message can be received while another is being
transmitted" (Section 2.2, footnote 1).

A channel transmits one packet at a time.  ``serialization = size /
bandwidth`` occupies the channel; the packet is delivered to the sink
``serialization + propagation`` after transmission starts.  Bandwidth is
in MB/s which, with microsecond time units, conveniently equals bytes/us.

The end of a transmission is an event only when something must happen
then.  Transmission start reserves the engine key ``(end, seq)`` its
transmit-done event would take; the event is scheduled there only when
a packet queues behind the transmission or the packet is lost (a run
that ends on a drop still ends at that instant).  Otherwise the busy
flag is settled lazily by comparing the reserved key with the engine's
position (what :meth:`~repro.sim.engine.Simulator.dispatched` says,
compared in place on the per-packet paths), so a packet crossing an
idle channel costs one event, its delivery, and every start time,
delivery and ``seq`` is what an always-scheduled end event gives.

The per-packet path calls no helper: a transmission pushes its own
engine entries and takes its reserved ``seq`` in place (see "Wake-ups
the kernel pushes itself" in ``docs/engine.md``), the wire size is
``HEADER_BYTES + payload_bytes``, and the delivery record is one
``Tracer.emit`` call, which calls no Python code untraced.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional, Protocol

from repro.network.packet import HEADER_BYTES, Packet
from repro.sim.engine import PRIORITY_NORMAL, Simulator


class PacketSink(Protocol):
    """Anything that can accept a fully-arrived packet."""

    def receive_packet(self, packet: Packet) -> None:
        """Accept a fully-arrived packet."""
        ...


class Channel:
    """One direction of a link: FIFO, one packet on the wire at a time.

    Parameters
    ----------
    sim:
        Owning simulator.
    bandwidth_mbps:
        Bandwidth in MB/s (= bytes per microsecond).
    propagation_us:
        Cable propagation delay in microseconds.
    name:
        Label for traces.

    The ``sink`` (set via :meth:`connect`) receives the packet when its
    tail arrives.  An optional ``loss_filter`` may drop packets (used by
    the reliability tests); dropped packets still occupy the channel for
    their serialization time, as a corrupted packet would.

    Fault-injection hooks (all inert by default -- an unfaulted channel
    schedules exactly the same events as before these hooks existed):

    * ``fault_filter`` -- richer generalization of ``loss_filter``: a
      callable returning ``None`` (deliver), ``"drop"`` (lose silently)
      or ``"corrupt"`` (the packet is transmitted but fails CRC at the
      receiver, i.e. dropped and counted in ``packets_corrupted``).
    * :meth:`set_down` / :meth:`set_up` -- a *down* channel (cable pulled
      / link flapped) loses every packet transmitted into it.
    * :meth:`pause` / :meth:`resume` -- a *paused* channel (output-port
      arbitration stall) queues packets without loss and drains on
      resume.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_mbps: float,
        propagation_us: float,
        name: str = "",
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation must be >= 0")
        self.sim = sim
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self.name = name
        self.sink: Optional[PacketSink] = None
        #: Optional tracer; set by the fabric so deliveries of
        #: ctx-carrying packets leave a ``link.deliver`` record.
        self.tracer = None
        self.loss_filter: Optional[Callable[[Packet], bool]] = None
        #: Fault-injection hook: ``fn(packet) -> None | "drop" | "corrupt"``.
        self.fault_filter: Optional[Callable[[Packet], Optional[str]]] = None
        self._queue: Deque[Packet] = deque()
        #: A packet is on the wire -- or was, if ``_tx_seq`` is set and
        #: the engine has passed the reserved end (see :attr:`queue_depth`).
        self._busy = False
        #: Reserved transmit-done key ``(_tx_end, _tx_seq)``; ``_tx_seq``
        #: is None while the end event is scheduled (or nothing is sent).
        self._tx_end = 0.0
        self._tx_seq: Optional[int] = None
        self._paused = False
        #: Link-flap state: a down channel loses everything sent into it.
        self.is_down = False
        #: Counters for tests and utilization reporting.
        self.packets_sent = 0
        self.packets_dropped = 0
        #: Subsets of ``packets_dropped`` by cause.
        self.packets_corrupted = 0
        self.packets_lost_down = 0
        self.bytes_sent = 0
        #: Simulated wire-occupancy integral (serialization time of every
        #: packet put on the wire, dropped ones included).
        self.busy_us = 0.0
        #: Deepest backlog (queued + on wire) seen.
        self.max_queue_depth = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach the delivery target at the far end."""
        self.sink = sink

    def declare_probes(self, component: str) -> None:
        """Declare this channel's quantities in the simulator's probe
        table: the ``link.<name>.*`` totals and levels, and the sampled
        contention signals of its role ``component`` (``sw0.p3``,
        ``nic2.tx``)."""
        probe = self.sim.probe
        link = f"link.{self.name}"
        # busy_us is a monotone integral of serialization time; sampled
        # as a counter its per-interval rate is utilization in [0, 1].
        probe(f"{link}.busy_us", lambda: self.busy_us,
              "counter", component, "frac")
        probe(f"{link}.utilization", self.utilization,
              "gauge", component, "frac")
        probe(f"{link}.bytes", lambda: self.bytes_sent,
              "counter", component, "B/us")
        probe(f"{link}.queue_hw", lambda: self.max_queue_depth,
              "gauge", component, "pkts")
        probe(f"{link}.dropped", lambda: self.packets_dropped,
              "counter", component, "pkts/us")
        probe(f"{link}.corrupted", lambda: self.packets_corrupted,
              "counter", component, "pkts/us")
        probe(f"{component}.queue", lambda: self.queue_depth,
              "gauge", component, "pkts")
        probe(f"{component}.inflight_bytes",
              lambda: sum(p.size_bytes for p in self._queue),
              "gauge", component, "bytes")
        probe(f"{component}.paused", lambda: 1.0 if self._paused else 0.0,
              "gauge", component, "")

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission (returns immediately)."""
        if self.sink is None:
            raise RuntimeError(f"channel {self.name!r} has no sink connected")
        self._queue.append(packet)
        busy = self._busy
        if busy and self._tx_seq is not None:
            # queue_depth's settling in place: the transmission is over
            # once the engine has passed its reserved end
            # (Simulator.dispatched).
            sim = self.sim
            at = sim._at
            if (
                self._tx_end <= sim.now if at is None
                else [self._tx_end, PRIORITY_NORMAL, self._tx_seq] < at
            ):
                busy = self._busy = False
        depth = len(self._queue) + busy
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if not busy:
            self._start_next()
        elif self._tx_seq is not None:
            # The packet waits behind the transmission: its end must run.
            self.sim.schedule_reserved(self._tx_end, self._tx_seq, self._tx_done)
            self._tx_seq = None

    @property
    def queue_depth(self) -> int:
        """Packets queued or on the wire.  Reading it clears a busy flag
        whose unscheduled transmit end the engine has already passed."""
        if (
            self._busy
            and self._tx_seq is not None
            and self.sim.dispatched(self._tx_end, self._tx_seq)
        ):
            self._busy = False
        return len(self._queue) + self._busy

    def serialization_time(self, packet: Packet) -> float:
        """Wire occupancy time for one packet."""
        return packet.size_bytes / self.bandwidth_mbps

    def utilization(self, since: float = 0.0) -> float:
        """Busy fraction of the wire over the window from ``since`` to now."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_us / elapsed

    # -- fault-injection state changes -----------------------------------
    def set_down(self) -> None:
        """Take the channel down (link flap): packets sent while down are
        lost after their serialization time, like a pulled cable."""
        self.is_down = True

    def set_up(self) -> None:
        """Bring a downed channel back up."""
        self.is_down = False

    def pause(self) -> None:
        """Stall the transmitter: queued packets wait, nothing is lost.
        A packet already on the wire finishes normally."""
        self._paused = True

    def resume(self) -> None:
        """Release a stall and restart transmission if work is queued."""
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._start_next()

    # ------------------------------------------------------------------
    def _transmit_verdict(self, packet: Packet) -> Optional[str]:
        """Why this packet will be lost, or None to deliver it."""
        if self.loss_filter is not None and self.loss_filter(packet):
            return "drop"
        if self.is_down:
            return "down"
        if self.fault_filter is not None:
            return self.fault_filter(packet)
        return None

    def _start_next(self) -> None:
        if self._paused or not self._queue:
            self._busy = False
            return
        self._busy = True
        sim = self.sim
        packet = self._queue.popleft()
        size = HEADER_BYTES + packet.payload_bytes  # packet.size_bytes
        ser = size / self.bandwidth_mbps  # serialization_time(packet)
        self.busy_us += ser
        if (
            self.loss_filter is None
            and self.fault_filter is None
            and not self.is_down
        ):
            verdict = None  # what _transmit_verdict() says, uncalled
        else:
            verdict = self._transmit_verdict(packet)
        # The delivery and transmit-done entries below are the ones
        # ``sim.schedule`` would push, pushed in place, and the reserved
        # key takes the next ``seq`` the same way (docs/engine.md).
        if verdict is not None:
            self.packets_dropped += 1
            if verdict == "corrupt":
                self.packets_corrupted += 1
            elif verdict == "down":
                self.packets_lost_down += 1
        else:
            self.packets_sent += 1
            self.bytes_sent += size
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, [
                sim.now + (ser + self.propagation_us), PRIORITY_NORMAL, seq,
                self._deliver, (packet,),
            ])
        # Channel frees up when the tail leaves the transmitter.
        sim._seq = seq = sim._seq + 1
        if verdict is not None or self._queue:
            self._tx_seq = None
            heappush(sim._heap, [
                sim.now + ser, PRIORITY_NORMAL, seq, self._tx_done, (),
            ])
        else:
            self._tx_end = sim.now + ser
            self._tx_seq = seq

    def _deliver(self, packet: Packet) -> None:
        tracer = self.tracer
        if tracer is not None and packet.ctx is not None:
            tracer.emit((self.sim.now, "net", "link.deliver", {
                "key": packet.packet_id, "channel": self.name, "ctx": packet.ctx,
            }))
        self.sink.receive_packet(packet)

    def _tx_done(self) -> None:
        self._busy = False
        self._start_next()


class Link:
    """A full-duplex cable between two attachment points.

    ``a_to_b`` and ``b_to_a`` are independent channels.  Callers attach
    sinks with :meth:`connect`.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_mbps: float,
        propagation_us: float,
        name: str = "",
    ) -> None:
        self.name = name
        self.a_to_b = Channel(sim, bandwidth_mbps, propagation_us, name=f"{name}:a->b")
        self.b_to_a = Channel(sim, bandwidth_mbps, propagation_us, name=f"{name}:b->a")

    def connect(self, sink_at_a: PacketSink, sink_at_b: PacketSink) -> None:
        """Attach the receive sinks at each end."""
        self.a_to_b.connect(sink_at_b)
        self.b_to_a.connect(sink_at_a)
