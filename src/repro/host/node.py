"""A cluster node: host CPU(s) + one NIC + the GM driver."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gm.memory import PinnedMemoryRegistry
from repro.host.cpu import HostParams
from repro.sim.engine import Simulator
from repro.sim.primitives import Hold, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.gm.driver import GmDriver
    from repro.nic.nic import Nic


class CpuCharges(dict):
    """``duration -> (hold,)``: host CPU charges, one shared
    :class:`~repro.sim.primitives.Hold` per duration, built on first use.

    A host charge is ``yield from node.cpu_charges[duration]``: the
    tuple's one hold is yielded, and a zero charge is the empty tuple,
    which yields nothing.  A negative duration raises ``ValueError`` at
    the lookup.  The process resumes a finished hold with ``None``, so
    ``yield from`` needs no generator of its own: a charge runs no
    Python code once its duration has been seen.
    """

    __slots__ = ("cpu",)

    def __init__(self, cpu: Resource) -> None:
        super().__init__()
        self.cpu = cpu

    def __missing__(self, duration: float) -> tuple:
        if duration < 0:
            raise ValueError("negative host CPU time")
        charge = self[duration] = (Hold(self.cpu, duration),) if duration else ()
        return charge


class Node:
    """One workstation of the cluster.

    Host code charges its CPU with ``yield from node.cpu_charges[us]``
    (one shared hold per duration, see :class:`CpuCharges`) and runs
    an application compute phase with ``yield from node.compute(us)``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: "Nic",
        host_params: Optional[HostParams] = None,
        max_pinned_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.params = host_params or HostParams()
        self.cpu = Resource(
            sim, capacity=self.params.num_cpus, name=f"node{node_id}.cpu"
        )
        #: ``duration -> (hold,)``: a host CPU charge, driven with
        #: ``yield from node.cpu_charges[us]`` (see :class:`CpuCharges`).
        self.cpu_charges = CpuCharges(self.cpu)
        self.memory = PinnedMemoryRegistry(node_id, max_pinned_bytes)
        #: Host processes running on this node (registered by the cluster
        #: runner) so a fail-stop NodeCrash can kill them with the NIC.
        self.programs: list = []
        # Imported lazily to avoid a cycle (driver needs Node for typing).
        from repro.gm.driver import GmDriver

        self.driver: "GmDriver" = GmDriver(self)

    def compute(self, duration_us: float):
        """Application compute phase occupying one CPU (for fuzzy-barrier
        and BSP examples)."""
        yield self.cpu.hold(duration_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id}>"
