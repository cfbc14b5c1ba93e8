"""The instantiated network: switches + channels + NIC attachment points.

The :class:`Network` turns a :class:`~repro.network.topology.Topology`
into live simulation objects and exposes exactly two things to a NIC:

* :meth:`attach_nic` -- register the NIC's receive sink, get back the
  transmit :class:`~repro.network.link.Channel` the NIC injects into;
* :meth:`route_for` -- the cached source route for a destination NIC,
  which the NIC stamps into each packet header.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.link import Channel, PacketSink
from repro.network.packet import Packet
from repro.network.routing import compute_route
from repro.network.switch import CrossbarSwitch
from repro.network.topology import Topology
from repro.sim.engine import Simulator


class NetworkParams:
    """Physical-layer constants.

    Defaults approximate the Myrinet LAN generation of the paper:
    1.28 Gb/s links (160 MB/s), short-cable propagation, sub-microsecond
    cut-through routing.
    """

    def __init__(
        self,
        bandwidth_mbps: float = 160.0,
        propagation_us: float = 0.04,
        routing_delay_us: float = 0.35,
    ) -> None:
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self.routing_delay_us = routing_delay_us


class Network:
    """Live fabric built from a topology description."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: Optional[NetworkParams] = None,
        tracer=None,
    ) -> None:
        topology.validate()
        self.sim = sim
        self.topology = topology
        self.params = params or NetworkParams()
        #: Tracer handed to every channel and switch (``net`` category
        #: records for ctx-carrying packets); None disables them.
        self.tracer = tracer
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self._switches: Dict[int, CrossbarSwitch] = {}
        #: nic_id -> transmit channel (NIC -> its switch)
        self._nic_tx: Dict[int, Channel] = {}
        #: nic_id -> the channel that delivers *to* the NIC, so loss
        #: injection can target a specific receiver.
        self._nic_rx: Dict[int, Channel] = {}
        self._attached: Dict[int, bool] = {}

        for spec in topology.switches:
            switch = CrossbarSwitch(
                sim,
                spec.num_ports,
                routing_delay_us=self.params.routing_delay_us,
                switch_id=spec.switch_id,
            )
            switch.tracer = tracer
            self._switches[spec.switch_id] = switch
            if sim.probing:
                sim.probe(f"{switch.name}.packets_routed",
                          lambda sw=switch: sw.packets_routed,
                          "counter", switch.name, "pkts/us")
                sim.probe(f"{switch.name}.output_stalls",
                          lambda sw=switch: sum(sw.output_stalls.values()),
                          "counter", switch.name, "stalls/us")

        # Inter-switch trunks: a pair of channels wired into both switches.
        for t in topology.trunks:
            sw_a = self._switches[t.switch_a]
            sw_b = self._switches[t.switch_b]
            a_out = self._make_channel(
                f"trunk:{t.switch_a}.{t.port_a}->{t.switch_b}",
                f"sw{t.switch_a}.p{t.port_a}",
            )
            b_out = self._make_channel(
                f"trunk:{t.switch_b}.{t.port_b}->{t.switch_a}",
                f"sw{t.switch_b}.p{t.port_b}",
            )
            sink_at_a = sw_a.attach(t.port_a, a_out)
            sink_at_b = sw_b.attach(t.port_b, b_out)
            a_out.connect(sink_at_b)
            b_out.connect(sink_at_a)

    def _make_channel(self, name: str, component: str) -> Channel:
        """A channel named ``name`` whose probes, if any view is on, are
        declared under its role ``component``: ``sw0.p3`` for a switch
        output port, ``nic2.tx`` for a NIC's injection link, so hotspot
        attribution ranks physical contention points, not wiring
        directions."""
        ch = Channel(
            self.sim,
            self.params.bandwidth_mbps,
            self.params.propagation_us,
            name=name,
        )
        ch.tracer = self.tracer
        if self.sim.probing:
            ch.declare_probes(component)
        return ch

    # ------------------------------------------------------------------
    def attach_nic(self, nic_id: int, sink: PacketSink) -> Channel:
        """Cable ``nic_id`` into the fabric.

        ``sink`` receives packets addressed to this NIC; the returned
        channel is the NIC's transmit side (inject packets with a route
        already stamped -- see :meth:`route_for`).
        """
        if self._attached.get(nic_id):
            raise RuntimeError(f"NIC {nic_id} already attached")
        try:
            switch_id, port = self.topology.nic_attachments[nic_id]
        except KeyError:
            raise ValueError(f"topology has no attachment for NIC {nic_id}") from None
        switch = self._switches[switch_id]
        # Switch -> NIC direction: this switch output port, the
        # congestion point when many senders target one NIC.
        down = self._make_channel(
            f"down:sw{switch_id}.{port}->nic{nic_id}", f"sw{switch_id}.p{port}"
        )
        down.connect(sink)
        switch_sink = switch.attach(port, down)
        # NIC -> switch direction: the NIC's own injection link.
        up = self._make_channel(
            f"up:nic{nic_id}->sw{switch_id}.{port}", f"nic{nic_id}.tx"
        )
        up.connect(switch_sink)
        self._nic_tx[nic_id] = up
        self._nic_rx[nic_id] = down
        self._attached[nic_id] = True
        return up

    def route_for(self, src_nic: int, dst_nic: int) -> List[int]:
        """Cached source route (copy) from ``src_nic`` to ``dst_nic``."""
        key = (src_nic, dst_nic)
        route = self._route_cache.get(key)
        if route is None:
            route = compute_route(self.topology, src_nic, dst_nic)
            self._route_cache[key] = route
        return list(route)

    def hop_count(self, src_nic: int, dst_nic: int) -> int:
        """Number of switch hops between two NICs."""
        return len(self.route_for(src_nic, dst_nic))

    def nic_ids(self) -> List[int]:
        """All attached NIC ids, sorted (the failure detector's peer set)."""
        return sorted(self._nic_tx)

    def close(self) -> None:
        """Unplug every switch output channel (``Cluster.close``)."""
        for switch in self._switches.values():
            for channel in switch._outputs.values():
                channel.sink = None

    # -- test / experiment hooks ----------------------------------------
    def tx_channel(self, nic_id: int) -> Channel:
        """The NIC's transmit channel (for counters in tests)."""
        return self._nic_tx[nic_id]

    def rx_channel(self, nic_id: int) -> Channel:
        """The final channel delivering into ``nic_id`` (loss injection
        point for reliability experiments)."""
        return self._nic_rx[nic_id]

    def switch(self, switch_id: int) -> CrossbarSwitch:
        """The live switch with the given id."""
        return self._switches[switch_id]

    @property
    def switches(self) -> List[CrossbarSwitch]:
        """All live switches."""
        return list(self._switches.values())
