"""Build a simulated Myrinet/GM cluster.

``build_cluster(ClusterConfig(num_nodes=16))`` reproduces the paper's
testbed: N nodes on one crossbar switch, each with one LANai NIC and a
dual-CPU host.  Everything is a parameter so the benches can sweep NIC
generation, host overhead, reliability mode and topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.host.cpu import HostParams
from repro.host.node import Node
from repro.network.fabric import Network, NetworkParams
from repro.network.topology import (
    Topology,
    multi_switch_topology,
    single_switch_topology,
)
from repro.nic.lanai import LANAI_4_3, LanaiModel
from repro.nic.nic import Nic, NicParams
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import SimRng
from repro.sim.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultController
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to assemble a cluster."""

    num_nodes: int = 8
    lanai_model: LanaiModel = LANAI_4_3
    host_params: HostParams = field(default_factory=HostParams)
    nic_params: NicParams = field(default_factory=NicParams)
    net_params: NetworkParams = field(default_factory=NetworkParams)
    #: Explicit topology; default = one switch if the nodes fit a 16-port
    #: crossbar (the paper's testbed), else a 16-port switch tree.
    topology: Optional[Topology] = None
    seed: int = 0
    trace: bool = False
    #: Build the simulation with a live metrics registry (see
    #: :mod:`repro.sim.metrics`); off by default for speed.
    metrics: bool = False
    #: Enable the per-callback-owner wall-clock profiler in the engine.
    profile: bool = False
    #: Sim-time sampled telemetry (see :mod:`repro.telemetry`): every
    #: component registers pull probes and a low-priority tick snapshots
    #: them into ring-buffered time series.  Off by default (null
    #: object, same <5% bar as ``metrics``).
    telemetry: bool = False
    #: Sampling period in simulated microseconds when telemetry is on.
    telemetry_sample_us: float = 10.0
    #: Deterministic fault injection (see :mod:`repro.faults`).  None (the
    #: default) wires nothing at all -- the build is bit-identical to one
    #: from before the fault subsystem existed.
    fault_plan: Optional["FaultPlan"] = None

    def with_(self, **changes) -> "ClusterConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def make_topology(self) -> Topology:
        """The explicit topology, or the testbed default for the size."""
        if self.topology is not None:
            return self.topology
        if self.num_nodes <= 16:
            return single_switch_topology(self.num_nodes)
        return multi_switch_topology(self.num_nodes, switch_radix=16)


class Cluster:
    """A live simulated cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator(
            metrics_enabled=config.metrics,
            profile=config.profile,
            telemetry_enabled=config.telemetry,
            telemetry_sample_us=config.telemetry_sample_us,
        )
        self.rng = SimRng(config.seed)
        self.tracer = Tracer(self.sim, enabled=config.trace)
        topology = config.make_topology()
        self.network = Network(
            self.sim, topology, config.net_params, tracer=self.tracer
        )
        self.nodes: List[Node] = []
        for node_id in range(config.num_nodes):
            nic = Nic(
                self.sim,
                node_id,
                config.lanai_model,
                self.network,
                params=config.nic_params,
                tracer=self.tracer,
            )
            self.nodes.append(
                Node(self.sim, node_id, nic, host_params=config.host_params)
            )
        #: Every process started by :meth:`spawn`.
        self.processes: List[Process] = []
        #: Live fault controller when a plan was configured, else None.
        self.faults: Optional["FaultController"] = None
        if config.fault_plan is not None:
            from repro.faults.inject import install_fault_plan

            self.faults = install_fault_plan(self, config.fault_plan)

    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        return self.nodes[node_id]

    def open_port(self, node_id: int, port_id: Optional[int] = None):
        """Open a GM port on a node (host-synchronous convenience)."""
        return self.nodes[node_id].driver.open_port(port_id)

    def spawn(self, generator, name: str = "") -> Process:
        """Run a host application generator as a simulation process."""
        process = Process(self.sim, generator, name=name)
        self.processes.append(process)
        return process

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation (see :meth:`repro.sim.engine.Simulator.run`).

        Any exception escaping the event loop gets the flight recorder's
        snapshot attached as ``exc.flight_records`` (unless something
        closer to the failure, like the NIC alarm path, already did), so
        whoever catches it -- a campaign worker, a test, a CLI -- holds
        the black box of the simulation's final moments.
        """
        # Re-arm the telemetry tick (no-op when disabled or already
        # armed): the sampler goes dormant at quiescence so the event
        # loop can drain, and this brings it back for the next batch of
        # work.
        self.sim.telemetry.start()
        try:
            return self.sim.run(until=until, max_events=max_events)
        except Exception as exc:
            if getattr(exc, "flight_records", None) is None:
                try:
                    exc.flight_records = self.tracer.flight.snapshot()
                except AttributeError:  # exception type forbids attrs
                    pass
            raise

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End of life, running no event, so refcounting frees the
        cluster; counters stay readable (see ``docs/engine.md``).
        ``with build_cluster(...) as cluster:`` closes it on exit,
        also when the run raised."""
        for process in self.processes:
            process.close()
        for node in self.nodes:
            node.nic.close()
            node.driver = None
        self.network.close()
        self.sim.close()

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self.sim.now

    @property
    def metrics(self):
        """The simulation metrics registry (null when not enabled)."""
        return self.sim.metrics

    @property
    def telemetry(self):
        """The sim-time telemetry sampler (null when not enabled)."""
        return self.sim.telemetry


def build_cluster(config: Optional[ClusterConfig] = None, **overrides) -> Cluster:
    """Assemble a cluster from a config (or keyword overrides)."""
    if config is None:
        config = ClusterConfig(**overrides)
    elif overrides:
        config = config.with_(**overrides)
    return Cluster(config)
