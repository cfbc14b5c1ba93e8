"""Declarative fault plans.

A :class:`FaultPlan` is pure data: a seed plus lists of fault rules.  It
can be written by hand, loaded from a config dict (``from_dict``) or
generated from a single integer seed (``random``), and it round-trips
through ``to_dict`` so a failing chaos run can be reproduced from its
logged plan.  Compilation into live simulator hooks happens in
:mod:`repro.faults.inject`.

Targeting model: NIC links are named by node id and direction --
``"rx"`` is the final switch->NIC channel delivering into the node (the
classic loss-injection point of the reliability tests), ``"tx"`` the
NIC->switch channel.  Switch stalls name a (switch, output port) pair.
All times are simulated microseconds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.network.packet import PacketType
from repro.sim.rng import SimRng

#: Named packet-type groups accepted wherever a rule takes ``ptypes``.
PTYPE_GROUPS: Dict[str, FrozenSet[PacketType]] = {
    "all": frozenset(PacketType),
    "data": frozenset({PacketType.DATA}),
    "barrier": frozenset(
        {
            PacketType.BARRIER_PE,
            PacketType.BARRIER_GATHER,
            PacketType.BARRIER_BCAST,
        }
    ),
    "ack": frozenset(
        {
            PacketType.ACK,
            PacketType.NACK,
            PacketType.BARRIER_ACK,
            PacketType.BARRIER_REJECT,
        }
    ),
}


def resolve_ptypes(spec) -> Optional[FrozenSet[PacketType]]:
    """Normalize a ptype spec (None / group name / iterable of names or
    :class:`PacketType`) into a frozenset, None meaning "match all"."""
    if spec is None:
        return None
    if isinstance(spec, str):
        group = PTYPE_GROUPS.get(spec)
        if group is not None:
            return group
        return frozenset({PacketType(spec)})
    out: set = set()
    for item in spec:
        if isinstance(item, PacketType):
            out.add(item)
        else:
            group = PTYPE_GROUPS.get(item)
            if group is not None:
                out.update(group)
            else:
                out.add(PacketType(item))
    return frozenset(out)


def _ptypes_to_config(ptypes: Optional[FrozenSet[PacketType]]):
    if ptypes is None:
        return None
    return sorted(pt.value for pt in ptypes)


@dataclass
class LossRule:
    """Probabilistic (or targeted) packet loss / corruption on NIC links.

    ``rate=1.0`` with a ``max_drops`` bound gives targeted deterministic
    loss; a fractional rate gives seeded probabilistic loss.  ``corrupt``
    marks the losses as CRC corruption (same wire behaviour -- the packet
    occupies the channel, then the receiver discards it -- but counted
    separately).
    """

    rate: float = 0.02
    #: Target node ids; None = every node.
    nodes: Optional[Sequence[int]] = None
    #: "rx" (switch->NIC delivery) or "tx" (NIC->switch injection).
    direction: str = "rx"
    #: Packet types to consider (group name, type values, or None = all).
    ptypes: Optional[object] = None
    #: Stop dropping after this many losses (None = unbounded).
    max_drops: Optional[int] = None
    #: Active window in simulated us ([start, stop); stop None = forever).
    start_us: float = 0.0
    stop_us: Optional[float] = None
    #: Count the losses as corruption rather than plain drops.
    corrupt: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.rate}")
        if self.direction not in ("rx", "tx"):
            raise ValueError(f"direction must be 'rx' or 'tx', got {self.direction!r}")
        self.ptypes = resolve_ptypes(self.ptypes)


@dataclass
class AckLoss:
    """Selective ACK loss: drop the first ``count`` acknowledgment
    packets (regular and barrier ACKs by default) delivered to a node.

    This is the targeted injector behind the ACK-loss lifecycle tests: a
    lost ACK must be covered by duplicate suppression + re-ACK, never by
    a timer retrying forever.
    """

    count: int = 1
    nodes: Optional[Sequence[int]] = None
    #: Which acknowledgment types to lose.
    ptypes: object = field(
        default_factory=lambda: ("ack", "barrier_ack")
    )

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("AckLoss.count must be >= 1")
        self.ptypes = resolve_ptypes(self.ptypes)

    def as_loss_rule(self) -> LossRule:
        """The equivalent targeted loss rule (rate 1, bounded drops)."""
        return LossRule(
            rate=1.0,
            nodes=self.nodes,
            direction="rx",
            ptypes=self.ptypes,
            max_drops=self.count,
        )


@dataclass
class LinkFlap:
    """A timed link outage: the node's cable goes down at ``down_at`` and
    (unless ``up_at`` is None -- a permanent cut) comes back at
    ``up_at``.  Packets transmitted while down are lost."""

    node: int = 0
    down_at: float = 0.0
    #: None = the link never comes back (the livelock/alarm scenario).
    up_at: Optional[float] = None
    #: "rx", "tx" or "both" halves of the cable.
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.direction not in ("rx", "tx", "both"):
            raise ValueError(
                f"direction must be 'rx', 'tx' or 'both', got {self.direction!r}"
            )
        if self.up_at is not None and self.up_at <= self.down_at:
            raise ValueError("LinkFlap.up_at must be after down_at")


@dataclass
class PortStall:
    """A switch output port stops arbitrating for ``duration_us`` starting
    at ``at_us``: packets queue behind the stalled port (no loss) and
    drain when it resumes -- the head-of-line-blocking fault mode."""

    switch: int = 0
    port: int = 0
    at_us: float = 0.0
    duration_us: float = 100.0

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ValueError("PortStall.duration_us must be positive")


@dataclass
class NicPause:
    """The LANai processor of one NIC stops executing firmware for
    ``duration_us`` (firmware stall / host OS jitter analogue): the pause
    claims the NIC CPU resource, so every MCP state machine waits."""

    node: int = 0
    at_us: float = 0.0
    duration_us: float = 50.0

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ValueError("NicPause.duration_us must be positive")


@dataclass
class NodeCrash:
    """Fail-stop death of a whole node at ``at_us``: every host program
    on the node is killed, the NIC stops executing, and both halves of
    its cable go dark.  With ``restart_at_us`` the node comes back later
    with fresh firmware state (peers keep it suspect -- rejoin is a
    group-membership *grow*, out of scope; the restarted node can open
    ports and talk to nodes that never suspected it)."""

    node: int = 0
    at_us: float = 0.0
    #: None = the node stays dead (the common fail-stop case).
    restart_at_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("NodeCrash.at_us must be >= 0")
        if self.restart_at_us is not None and self.restart_at_us <= self.at_us:
            raise ValueError("NodeCrash.restart_at_us must be after at_us")


@dataclass
class NicCrash:
    """The LANai dies at ``at_us`` but the host survives: its processes
    get a :class:`~repro.gm.events.PeerFailure` naming the *local* node
    (they cannot reach the fabric any more), while remote peers see an
    ordinary fail-stop silence."""

    node: int = 0
    at_us: float = 0.0

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("NicCrash.at_us must be >= 0")


_RULE_TYPES = {
    "loss": LossRule,
    "ack_loss": AckLoss,
    "flaps": LinkFlap,
    "stalls": PortStall,
    "pauses": NicPause,
    "crashes": NodeCrash,
    "nic_crashes": NicCrash,
}


@dataclass
class FaultPlan:
    """A seed plus fault rules; compiles into injectors at build time."""

    seed: int = 0
    loss: List[LossRule] = field(default_factory=list)
    ack_loss: List[AckLoss] = field(default_factory=list)
    flaps: List[LinkFlap] = field(default_factory=list)
    stalls: List[PortStall] = field(default_factory=list)
    pauses: List[NicPause] = field(default_factory=list)
    crashes: List[NodeCrash] = field(default_factory=list)
    nic_crashes: List[NicCrash] = field(default_factory=list)

    @property
    def num_rules(self) -> int:
        """Total rule count across every fault kind."""
        return sum(len(getattr(self, key)) for key in _RULE_TYPES)

    @property
    def has_crashes(self) -> bool:
        """Whether any fail-stop rule is present (arms the detectors)."""
        return bool(self.crashes or self.nic_crashes)

    # -- config round-trip ------------------------------------------------
    @classmethod
    def from_dict(cls, config: dict) -> "FaultPlan":
        """Build a plan from a plain config dict (inverse of to_dict)."""
        known = {"seed"} | set(_RULE_TYPES)
        unknown = set(config) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        kwargs: dict = {"seed": int(config.get("seed", 0))}
        for key, rule_cls in _RULE_TYPES.items():
            kwargs[key] = [rule_cls(**rule) for rule in config.get(key, [])]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """A JSON-able dict reproducing this plan via from_dict."""
        out: dict = {"seed": self.seed}
        for key in _RULE_TYPES:
            rules = getattr(self, key)
            if not rules:
                continue
            dumped = []
            for rule in rules:
                d = asdict(rule)
                if "ptypes" in d:
                    d["ptypes"] = _ptypes_to_config(rule.ptypes)
                dumped.append(d)
            out[key] = dumped
        return out

    # -- seeded generation ------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_nodes: int,
        horizon_us: float = 2000.0,
        intensity: float = 1.0,
        include_crashes: bool = False,
    ) -> "FaultPlan":
        """A bounded random plan derived entirely from ``seed``.

        Every fault is *recoverable by construction*: loss rules carry a
        ``max_drops`` bound, flaps always come back up, stalls and pauses
        have finite duration.  ``intensity`` scales rates and counts;
        ``horizon_us`` bounds when faults happen (recovery may finish
        later).  Same (seed, num_nodes, horizon, intensity) => the same
        plan, independent of any other RNG use.

        ``include_crashes`` (opt-in, so pre-existing plans stay
        byte-identical) adds one fail-stop :class:`NodeCrash` drawn from
        its own named stream.  Crashes are *not* recoverable: workloads
        running such a plan must be crash-aware (catch
        :class:`~repro.gm.events.PeerFailure` and shrink).
        """
        if num_nodes < 2:
            raise ValueError("a fault plan needs at least 2 nodes")
        rng = SimRng(seed)
        plan = cls(seed=seed)

        # 1-2 probabilistic loss rules on random victims.
        n_loss = 1 + rng.integers("plan.loss", 0, 2)
        for i in range(n_loss):
            stream = f"plan.loss.{i}"
            victims = sorted(
                set(
                    rng.integers(stream, 0, num_nodes)
                    for _ in range(1 + rng.integers(stream, 0, 2))
                )
            )
            plan.loss.append(
                LossRule(
                    rate=min(1.0, rng.uniform(stream, 0.02, 0.10) * intensity),
                    nodes=victims,
                    direction="rx" if rng.random(stream) < 0.7 else "tx",
                    max_drops=max(1, int(rng.integers(stream, 6, 20) * intensity)),
                    corrupt=rng.random(stream) < 0.3,
                )
            )

        # One selective ACK-loss burst.
        plan.ack_loss.append(
            AckLoss(
                count=max(1, int(rng.integers("plan.ack", 1, 4) * intensity)),
                nodes=[rng.integers("plan.ack", 0, num_nodes)],
            )
        )

        # One link flap with a bounded outage window.
        down_at = rng.uniform("plan.flap", 0.1 * horizon_us, 0.6 * horizon_us)
        plan.flaps.append(
            LinkFlap(
                node=rng.integers("plan.flap", 0, num_nodes),
                down_at=down_at,
                up_at=down_at + rng.uniform("plan.flap", 0.05, 0.2) * horizon_us,
                direction=("rx", "tx", "both")[rng.integers("plan.flap", 0, 3)],
            )
        )

        # One NIC-processor pause.
        plan.pauses.append(
            NicPause(
                node=rng.integers("plan.pause", 0, num_nodes),
                at_us=rng.uniform("plan.pause", 0.0, 0.5 * horizon_us),
                duration_us=rng.uniform("plan.pause", 10.0, 60.0) * intensity,
            )
        )

        # One switch output-port stall toward a random node (port indices
        # are resolved against the topology at install time; switch 0
        # exists in every topology this project builds).
        plan.stalls.append(
            PortStall(
                switch=0,
                port=rng.integers("plan.stall", 0, num_nodes),
                at_us=rng.uniform("plan.stall", 0.0, 0.5 * horizon_us),
                duration_us=rng.uniform("plan.stall", 20.0, 120.0) * intensity,
            )
        )

        # One fail-stop node crash (opt-in; its own stream keeps every
        # non-crash plan byte-identical to pre-crash-support output).
        if include_crashes:
            plan.crashes.append(
                NodeCrash(
                    node=rng.integers("plan.crash", 0, num_nodes),
                    at_us=rng.uniform(
                        "plan.crash", 0.2 * horizon_us, 0.8 * horizon_us
                    ),
                )
            )
        return plan
