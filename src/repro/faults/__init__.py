"""Deterministic fault injection for the simulated Myrinet/GM cluster.

The paper's barrier protocols are only correct because GM "provides
reliability by maintaining reliable connections between NICs"
(Section 4.1), and most of Sections 3.2--4.4 is about surviving lost,
duplicated and overtaken barrier messages.  This package turns those
recovery paths from occasionally-exercised code into continuously
verified code: a :class:`~repro.faults.plan.FaultPlan` (built from a
config dict or derived from a single integer seed) compiles into
injectors that the cluster builder wires in -- packet drop/corruption on
links, timed link flaps, switch output-port stalls, NIC-processor pauses
and selective ACK loss -- all driven by the simulator clock and a seeded
RNG, so the same seed always produces the same event trace.

Usage::

    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.faults import FaultPlan

    plan = FaultPlan.random(seed=7, num_nodes=8)       # or .from_dict(...)
    cluster = build_cluster(ClusterConfig(num_nodes=8, fault_plan=plan))
    # cluster.faults is the live FaultController with drop counters.

With ``fault_plan=None`` (the default) nothing is wired and the
simulation is bit-identical to an unfaulted build.

``repro.faults.soak`` runs every barrier algorithm to completion under
one of two fault families: a seeded loss plan (the chaos soak behind
``report.py --faults SEED``) or a fail-stop node crash (the crash soak
behind ``report.py --crashes SEED``).  Plans may carry
:class:`NodeCrash` / :class:`NicCrash` rules, which arm the NIC
heartbeat failure detectors over a bounded window around the planned
crashes so survivors abort with typed :class:`PeerFailure` and shrink
instead of hanging.
"""

from repro.faults.inject import FaultController, install_fault_plan
from repro.faults.plan import (
    AckLoss,
    FaultPlan,
    LinkFlap,
    LossRule,
    NicCrash,
    NicPause,
    NodeCrash,
    PortStall,
)
from repro.faults.soak import SoakResult, run_chaos_soak, run_crash_soak
from repro.gm.events import PeerFailure

__all__ = [
    "AckLoss",
    "FaultController",
    "FaultPlan",
    "LinkFlap",
    "LossRule",
    "NicCrash",
    "NicPause",
    "NodeCrash",
    "PeerFailure",
    "PortStall",
    "SoakResult",
    "install_fault_plan",
    "run_chaos_soak",
    "run_crash_soak",
]
