"""Discrete-event simulation kernel.

A small, dependency-free, deterministic discrete-event simulation (DES)
engine in the style of SimPy, purpose-built for simulating the Myrinet/GM
cluster substrate of this reproduction.

Key concepts
------------
:class:`~repro.sim.engine.Simulator`
    Owns the virtual clock and the event heap.  All other objects are bound
    to a simulator instance.
:class:`~repro.sim.process.Process`
    A generator-based coroutine.  A process yields one *waitable* at a
    time -- a :class:`~repro.sim.primitives.Timeout`, a
    :class:`~repro.sim.primitives.Hold`, a ``Store.get()``, a
    ``Resource.request()`` or another process -- and is resumed when it
    fires.  For every wait but the last, the waiting process is itself
    the wait record: those waits allocate nothing.  A process is its own
    completion; joining one (``yield process``) is the one wait with a
    handle of its own, a ``_WaitHandle`` the joined process keeps.
:class:`~repro.sim.primitives.Store` / :class:`~repro.sim.primitives.Resource`
    FIFO queues with blocking ``get`` and capacity-limited resources with
    FIFO grant order, used to model NIC processors, DMA engines, buses and
    hardware queues.  Blocked getters and queued holds wait in them as
    their processes.

Determinism
-----------
Events scheduled for the same instant fire in ``(time, priority, seq)``
order where ``seq`` is a monotone counter, so a given program always
produces the identical event interleaving.  All randomness flows through
:mod:`repro.sim.rng` which is seeded explicitly.
"""

from repro.sim.engine import Simulator
from repro.sim.metrics import (
    BusyTime,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.primitives import (
    Hold,
    Interrupted,
    Resource,
    Store,
    Timeout,
)
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import SimRng
from repro.sim.tracing import TraceEvent, Tracer

__all__ = [
    "BusyTime",
    "Counter",
    "Gauge",
    "Histogram",
    "Hold",
    "Interrupted",
    "MetricsRegistry",
    "Process",
    "ProcessKilled",
    "Resource",
    "SimRng",
    "Simulator",
    "Store",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
