"""Common scaffolding for the four MCP state machines.

Each machine is a simulation process in an endless fetch-work/do-work
loop.  Every unit of work charges NIC-processor time through the shared
CPU resource, so the machines interleave on the single LANai processor
exactly as the real MCP's cooperative dispatch loop does.  The charge
and trace helpers live in :class:`Firmware`, which the NIC barrier
engine (:mod:`repro.core.nic_barrier`) shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.sim.primitives import Hold
from repro.sim.process import Process, ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic

#: ``{machine_name: {label: "machine_name.label"}}``: each trace label
#: is built once, not on every record.
_LABELS: Dict[str, Dict[str, str]] = {}


class Firmware:
    """MCP code bound to one NIC: charges its LANai and records its
    trace events as ``"<machine_name>.<label>"``."""

    #: Subclasses set this for traces.
    machine_name = "machine"
    nic: "Nic"

    def cpu(self, operation: str) -> Hold:
        """Charge one firmware operation against the NIC processor.

        Usage: ``yield self.cpu("recv_packet")``.
        """
        nic = self.nic
        return Hold(nic.cpu_resource, nic.model.costs[operation])

    def trace(self, label: str, **payload) -> None:
        """Record a trace event if tracing is enabled."""
        nic = self.nic
        if nic.tracer is not None:
            try:
                full = _LABELS[self.machine_name][label]
            except KeyError:
                full = f"{self.machine_name}.{label}"
                _LABELS.setdefault(self.machine_name, {})[label] = full
            nic.tracer.record(nic.trace_category, full, **payload)


class StateMachine(Firmware):
    """Base class: binds to a NIC, runs :meth:`_run` as a process."""

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        self.process = Process(
            nic.sim,
            self._guarded_run(),
            name=f"nic{nic.node_id}.{self.machine_name}",
        )

    def _guarded_run(self):
        try:
            yield from self._run()
        except ProcessKilled:
            return

    def _run(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # make it a generator
