"""Compile a :class:`~repro.faults.plan.FaultPlan` into live injectors.

The controller wires four fault mechanisms into an already-built cluster:

* **packet loss / corruption** -- a :class:`ChannelInjector` installed as
  the channel's ``fault_filter`` (the generalization of the old ad-hoc
  ``loss_filter`` lambdas), drawing every probabilistic decision from a
  per-channel stream of a :class:`~repro.sim.rng.SimRng` seeded by the
  plan, so the same plan always drops the same packets;
* **link flaps** -- ``set_down``/``set_up`` events scheduled on the
  victim channels;
* **switch output-port stalls** -- ``pause``/``resume`` events on the
  switch's output channel (queueing, not loss);
* **NIC-processor pauses** -- a process that claims the NIC CPU resource
  for the window, making all four MCP state machines wait.

Everything is scheduled at install time from the plan's absolute
timestamps; nothing consults wall clocks or global RNG state, so a
seeded run is reproducible event-for-event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import AckLoss, FaultPlan, LossRule
from repro.network.link import Channel
from repro.network.packet import Packet
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster

#: Detector parameters auto-armed on every NIC when a plan carries
#: fail-stop crashes and the NicParams did not configure a detector
#: explicitly.  Chosen well under the soak harness's retransmission
#: timeouts, so survivors abort via PeerFailure long before any
#: retransmit-limit alarm could fire.
CRASH_HEARTBEAT_US = 50.0
CRASH_SUSPECT_AFTER_US = 400.0
#: Extra active-window slack past the last possible suspicion instant,
#: so the final declaring tick always runs before detectors go quiet.
CRASH_DETECTOR_SLACK_US = 3 * CRASH_HEARTBEAT_US


@dataclass
class _ActiveRule:
    """One loss rule bound to a channel, with its drop budget."""

    spec: LossRule
    drops: int = 0

    def exhausted(self) -> bool:
        return (
            self.spec.max_drops is not None
            and self.drops >= self.spec.max_drops
        )


class ChannelInjector:
    """The ``fault_filter`` for one channel: first matching rule wins."""

    def __init__(self, rng: SimRng, channel: Channel) -> None:
        self.sim = channel.sim
        self.rules: List[_ActiveRule] = []
        self._rng = rng
        self._stream = f"faults.{channel.name}"
        #: Packets this injector lost, and corrupted.
        self.drops = 0
        self.corruptions = 0

    def add_rule(self, spec: LossRule) -> None:
        """Bind one more loss rule to this channel."""
        self.rules.append(_ActiveRule(spec))

    def __call__(self, packet: Packet) -> Optional[str]:
        now = self.sim.now
        for rule in self.rules:
            spec = rule.spec
            if rule.exhausted():
                continue
            if now < spec.start_us:
                continue
            if spec.stop_us is not None and now >= spec.stop_us:
                continue
            if spec.ptypes is not None and packet.ptype not in spec.ptypes:
                continue
            if spec.rate < 1.0 and self._rng.random(self._stream) >= spec.rate:
                continue
            rule.drops += 1
            if spec.corrupt:
                self.corruptions += 1
                return "corrupt"
            self.drops += 1
            return "drop"
        return None


class FaultController:
    """The live fault-injection state of one cluster.

    Holds the plan, the per-channel injectors and the aggregate
    counters, and registers ``faults.*`` metrics so recovery behaviour
    shows up in the same snapshot as the component counters.
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        # The cluster's parts only: no cycle runs back through ``faults``.
        self.network = cluster.network
        self.nodes = cluster.nodes
        self.plan = plan
        self.rng = SimRng(plan.seed)
        self.injectors: Dict[str, ChannelInjector] = {}
        #: Aggregate counters (per-rule budgets live on the rules).
        self.flaps_scheduled = 0
        self.stalls_scheduled = 0
        self.pauses_scheduled = 0
        self.crashes_scheduled = 0
        self.crashes_fired = 0
        self._install(cluster)
        if cluster.sim.probing:
            self._declare_probes(cluster.sim)

    @property
    def drops(self) -> int:
        """Packets lost to loss rules, over every channel."""
        return sum(inj.drops for inj in self.injectors.values())

    @property
    def corruptions(self) -> int:
        """Packets corrupted by loss rules, over every channel."""
        return sum(inj.corruptions for inj in self.injectors.values())

    # ------------------------------------------------------------------
    def _channels_for(self, nodes, direction: str) -> List[Channel]:
        network = self.network
        node_ids = range(len(self.nodes)) if nodes is None else nodes
        out = []
        for node_id in node_ids:
            if direction in ("rx", "both"):
                out.append(network.rx_channel(node_id))
            if direction in ("tx", "both"):
                out.append(network.tx_channel(node_id))
        return out

    def _injector(self, channel: Channel) -> ChannelInjector:
        inj = self.injectors.get(channel.name)
        if inj is None:
            inj = ChannelInjector(self.rng, channel)
            self.injectors[channel.name] = inj
            if channel.fault_filter is not None:
                raise RuntimeError(
                    f"channel {channel.name!r} already has a fault_filter"
                )
            channel.fault_filter = inj
        return inj

    def _install(self, cluster: "Cluster") -> None:
        sim = cluster.sim
        plan = self.plan

        loss_rules: List[LossRule] = list(plan.loss)
        loss_rules.extend(rule.as_loss_rule() for rule in plan.ack_loss)
        for spec in loss_rules:
            for channel in self._channels_for(spec.nodes, spec.direction):
                self._injector(channel).add_rule(spec)

        for flap in plan.flaps:
            for channel in self._channels_for([flap.node], flap.direction):
                sim.schedule_at(flap.down_at, channel.set_down)
                if flap.up_at is not None:
                    sim.schedule_at(flap.up_at, channel.set_up)
                self.flaps_scheduled += 1

        for stall in plan.stalls:
            switch = self.network.switch(stall.switch)
            channel = switch.output_channel(stall.port)
            if channel is None:
                raise ValueError(
                    f"PortStall targets unattached port {stall.port} "
                    f"on switch {stall.switch}"
                )
            sim.schedule_at(stall.at_us, channel.pause)
            sim.schedule_at(stall.at_us + stall.duration_us, channel.resume)
            self.stalls_scheduled += 1

        for pause in plan.pauses:
            nic = self.nodes[pause.node].nic
            cluster.spawn(
                self._pause_nic(nic, pause.at_us, pause.duration_us),
                name=f"fault.pause.nic{pause.node}",
            )
            self.pauses_scheduled += 1

        # Fail-stop crashes: every NIC gets a failure detector now (so
        # piggybacked liveness stamps accumulate from the start), but
        # arming waits until the first crash instant and the active
        # window closes shortly after the last possible suspicion --
        # heartbeat ticking is only paid around the crashes themselves,
        # not across the whole run.
        if plan.has_crashes:
            crash_times = [c.at_us for c in plan.crashes] + [
                c.at_us for c in plan.nic_crashes
            ]
            horizon = (
                max(crash_times)
                + CRASH_SUSPECT_AFTER_US
                + CRASH_DETECTOR_SLACK_US
            )
            self._ensure_detectors()
            sim.schedule_at(min(crash_times), self._arm_detectors, horizon)
        for crash in plan.crashes:
            node = self.nodes[crash.node]
            sim.schedule_at(crash.at_us, self._crash_node, node)
            if crash.restart_at_us is not None:
                sim.schedule_at(crash.restart_at_us, self._restart_node, node)
            self.crashes_scheduled += 1
        for crash in plan.nic_crashes:
            nic = self.nodes[crash.node].nic
            sim.schedule_at(crash.at_us, self._crash_nic, nic)
            self.crashes_scheduled += 1

    # -- fail-stop crash machinery ---------------------------------------
    def _ensure_detectors(self) -> None:
        """Give every NIC a (not yet armed) heartbeat detector.

        NICs whose params configured one explicitly keep theirs; the
        rest get the crash-plan defaults.
        """
        from repro.nic.detector import FailureDetector

        for node in self.nodes:
            if node.nic.detector is None:
                node.nic.detector = FailureDetector(
                    node.nic, CRASH_HEARTBEAT_US, CRASH_SUSPECT_AFTER_US
                )

    def _arm_detectors(self, active_until: float) -> None:
        """Arm every live NIC's detector over the crash window (arming
        only ever extends an explicitly-configured detector's window)."""
        for node in self.nodes:
            if not node.nic.crashed:
                node.nic.detector.arm(active_until=active_until)

    def _crash_node(self, node) -> None:
        """Fail-stop: kill the host programs, the NIC, then the cables."""
        self.crashes_fired += 1
        for proc in list(node.programs):
            if proc.alive:
                proc.kill()
        node.nic.crash()
        network = self.network
        network.rx_channel(node.node_id).set_down()
        network.tx_channel(node.node_id).set_down()

    def _restart_node(self, node) -> None:
        """Optional restart: cables up, fresh firmware (no rejoin)."""
        network = self.network
        network.rx_channel(node.node_id).set_up()
        network.tx_channel(node.node_id).set_up()
        node.nic.restart()

    def _crash_nic(self, nic) -> None:
        """NicCrash: the LANai dies, the host survives and is told."""
        self.crashes_fired += 1
        nic.crash()

    @staticmethod
    def _pause_nic(nic, at_us: float, duration_us: float):
        """Claim the LANai processor for the pause window (generator).

        One ``hold`` on the CPU resource: the grant is FIFO behind
        whatever firmware currently holds the CPU, matching a stall that
        begins at the next instruction boundary rather than
        mid-operation.
        """
        from repro.sim.primitives import Timeout

        if at_us > 0:
            yield Timeout(at_us)
        yield nic.cpu_resource.hold(duration_us)

    def _declare_probes(self, sim) -> None:
        for name, attr in (
            ("drops", "drops"),
            ("corruptions", "corruptions"),
            ("flaps", "flaps_scheduled"),
            ("stalls", "stalls_scheduled"),
            ("pauses", "pauses_scheduled"),
            ("crashes", "crashes_scheduled"),
        ):
            sim.probe(f"faults.{name}", lambda a=attr: getattr(self, a),
                      "counter", "faults", f"{name}/us")

    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        """Every packet lost or corrupted by this controller."""
        return self.drops + self.corruptions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultController seed={self.plan.seed} "
            f"rules={self.plan.num_rules} injected={self.total_injected}>"
        )


def install_fault_plan(cluster: "Cluster", plan: FaultPlan) -> FaultController:
    """Wire ``plan`` into a built cluster; returns the live controller."""
    return FaultController(cluster, plan)
