"""Common scaffolding for the four MCP state machines.

Each machine is a simulation process in an endless fetch-work/do-work
loop.  Every unit of work charges NIC-processor time through the shared
CPU resource, so the machines interleave on the single LANai processor
exactly as the real MCP's cooperative dispatch loop does.  The charge
and trace helpers live in :class:`Firmware`, which the NIC barrier
engine (:mod:`repro.core.nic_barrier`) shares; a trace record is one
``Tracer.emit`` call, and the tracer decides where it goes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.sim.primitives import HoldTable
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic


class Firmware:
    """MCP code bound to one NIC: charges its LANai and records its
    trace events as ``"<machine_name>.<label>"``.

    A LANai charge is one :class:`~repro.sim.primitives.Hold` per
    operation, built on its first use and shared by every machine of
    the NIC: a charge subscripts the NIC's charge table,
    ``yield self.charge["recv_packet"]``, which calls no Python code
    once the hold exists (an unknown operation raises ``KeyError``).
    Each trace label is built once per class, and a record is one
    :meth:`~repro.sim.tracing.Tracer.emit` call, which calls no Python
    code when tracing is off.
    """

    #: Subclasses set this for traces.
    machine_name = "machine"
    nic: "Nic"
    #: ``{label: "machine_name.label"}`` of this class.
    _labels: Dict[str, str] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._labels = {}

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        self._sim = nic.sim
        #: ``Nic.lanai_charges``: operation -> its shared hold.
        self.charge: HoldTable = nic.lanai_charges
        self._tracer = nic.tracer
        self._category = nic.trace_category

    def trace(self, label: str, **payload) -> None:
        """Record a trace event ``"<machine_name>.<label>"`` through
        ``Tracer.emit``."""
        tracer = self._tracer
        if tracer is not None:
            try:
                full = self._labels[label]
            except KeyError:
                full = self._labels[label] = f"{self.machine_name}.{label}"
            tracer.emit((self._sim.now, self._category, full, payload))


class StateMachine(Firmware):
    """Base class: binds to a NIC, runs :meth:`_run` as a process.

    A killed machine needs no guard: ``Process`` completes a process
    killed by :meth:`~repro.sim.process.Process.kill` with ``None``.
    """

    def __init__(self, nic: "Nic") -> None:
        super().__init__(nic)
        self.process = Process(
            nic.sim,
            self._run(),
            name=f"nic{nic.node_id}.{self.machine_name}",
        )

    def _run(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # make it a generator
