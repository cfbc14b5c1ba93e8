"""Cut-through crossbar switch.

Myrinet switches are source-routed wormhole crossbars: the head of the
packet carries one route byte per hop; the switch reads it, claims the
requested output port, and streams the packet through.  We model this as:

* a fixed ``routing_delay`` between head arrival and the packet entering
  the output channel (the cut-through latency, ~0.3-0.5 us on the
  Myrinet-LAN switches of the era);
* per-output-port FIFO contention via the output :class:`Channel`'s
  one-packet-at-a-time serialization.

Routing decisions for distinct packets proceed in parallel (a crossbar
has per-port route logic), so there is no shared "switch CPU" resource.

A route is the per-packet path of the fabric: it pushes its hand-off to
the output channel in place (see "Wake-ups the kernel pushes itself" in
``docs/engine.md``), records through ``Tracer.emit``, and counts an
output stall from the channel's own :attr:`~Channel.queue_depth`.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional

from repro.network.link import Channel, PacketSink
from repro.network.packet import Packet
from repro.sim.engine import PRIORITY_NORMAL, Simulator


class _SwitchInput:
    """Receive sink for one switch port: routes each arriving packet
    through the crossbar (see :meth:`CrossbarSwitch.attach`)."""

    __slots__ = ("switch", "port_index")

    def __init__(self, switch: "CrossbarSwitch", port_index: int) -> None:
        self.switch = switch
        self.port_index = port_index

    def receive_packet(self, packet: Packet) -> None:
        """Read the packet's next route byte and hand it to that output
        port's channel ``routing_delay_us`` later."""
        switch = self.switch
        route = packet.route
        if not route:  # what packet.hop() raises
            raise RuntimeError(f"packet {packet} has exhausted its route")
        out_port = route.pop(0)
        ctx = packet.ctx
        if ctx is not None:
            # Advance the hop counter (same span ids: a hop is not a new
            # causal edge, just progress along the wire).
            packet.ctx = ctx = ctx.next_hop()
        channel = switch._outputs.get(out_port)
        if channel is None:
            # A packet routed to an uncabled port is silently dropped by
            # real Myrinet hardware; count it so tests can assert on it.
            switch.packets_dead_ended += 1
            return
        switch.packets_routed += 1
        sim = switch.sim
        tracer = switch.tracer
        if tracer is not None and ctx is not None:
            tracer.emit((sim.now, "net", "switch.route", {
                "key": packet.packet_id, "switch": switch.name,
                "in_port": self.port_index, "out_port": out_port, "ctx": ctx,
            }))
        if channel.queue_depth:
            stalls = switch.output_stalls
            stalls[out_port] = stalls.get(out_port, 0) + 1
        # ``sim.schedule(routing_delay_us, channel.send, packet)``,
        # pushed in place (docs/engine.md).
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, [
            sim.now + switch.routing_delay_us, PRIORITY_NORMAL, seq,
            channel.send, (packet,),
        ])


class CrossbarSwitch:
    """An N-port cut-through crossbar.

    Ports are wired with :meth:`attach`: the caller supplies the outgoing
    channel for a port (towards whatever is cabled there) and receives the
    sink object to connect as that cable's delivery target.
    """

    def __init__(
        self,
        sim: Simulator,
        num_ports: int,
        routing_delay_us: float = 0.35,
        switch_id: int = 0,
        name: str = "",
    ) -> None:
        if num_ports <= 0:
            raise ValueError("switch needs at least one port")
        if routing_delay_us < 0:
            raise ValueError("routing delay must be >= 0")
        self.sim = sim
        self.num_ports = num_ports
        self.routing_delay_us = routing_delay_us
        self.switch_id = switch_id
        self.name = name or f"switch{switch_id}"
        self._outputs: Dict[int, Channel] = {}
        #: Optional tracer; set by the fabric so routed ctx-carrying
        #: packets leave a ``switch.route`` record.
        self.tracer = None
        #: Counters for tests.
        self.packets_routed = 0
        self.packets_dead_ended = 0
        #: Per-output-port count of packets routed to a port whose channel
        #: already had traffic queued or on the wire (arbitration stalls).
        self.output_stalls: Dict[int, int] = {}

    def attach(self, port_index: int, output_channel: Channel) -> PacketSink:
        """Wire ``port_index``: packets routed to it leave on
        ``output_channel``; the returned sink accepts packets arriving on
        this port."""
        if not 0 <= port_index < self.num_ports:
            raise ValueError(
                f"port {port_index} out of range for {self.num_ports}-port switch"
            )
        if port_index in self._outputs:
            raise ValueError(f"{self.name} port {port_index} already attached")
        self._outputs[port_index] = output_channel
        return _SwitchInput(self, port_index)

    def output_channel(self, port_index: int) -> Optional[Channel]:
        """The channel cabled to a port, if attached."""
        return self._outputs.get(port_index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.name} ports={self.num_ports} attached={len(self._outputs)}>"
