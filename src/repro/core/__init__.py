"""The paper's contribution: NIC-based barrier synchronization.

* :mod:`repro.core.schedule` -- the collective schedule IR and the four
  compilers (recursive doubling, dissemination, d-ary tree, binomial
  broadcast) that are the only place an algorithm's peers are computed.
  Section 5.1 argues this belongs on the host: "the tree construction is
  a relatively computationally intensive task which can easily be
  computed at the host".
* :mod:`repro.core.topology_calc` -- lowers a compiled barrier schedule
  to the :class:`BarrierPlan` the NIC firmware runs (PE steps or GB
  parent/children).
* :mod:`repro.core.nic_barrier` -- the firmware extension: the barrier
  logic the SDMA and RDMA state machines execute (Section 5.2), whose
  tree program also runs the NIC reduce/allreduce/bcast (Section 8).
* :mod:`repro.core.host_barrier` -- the host-based baselines the paper
  compares against (Section 6): one blocking walker over compiled
  schedules serves every host barrier and data collective.
* :mod:`repro.core.barrier` -- the user-facing facade: initiate, fuzzy
  poll, complete.
"""

from repro.core.barrier import BarrierHandle, barrier, fuzzy_barrier
from repro.core.collectives import allreduce, bcast, reduce
from repro.core.host_barrier import (
    host_allreduce,
    host_barrier,
    host_bcast,
    host_reduce,
)
from repro.core.topology_calc import (
    BarrierPlan,
    dissemination_plan,
    gb_plan,
    pe_plan,
)

__all__ = [
    "BarrierHandle",
    "BarrierPlan",
    "allreduce",
    "barrier",
    "bcast",
    "dissemination_plan",
    "fuzzy_barrier",
    "gb_plan",
    "host_allreduce",
    "host_barrier",
    "host_bcast",
    "host_reduce",
    "pe_plan",
    "reduce",
]
