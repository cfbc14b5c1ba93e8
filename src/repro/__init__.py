"""repro: a reproduction of "Fast NIC-Based Barrier over Myrinet/GM"
(Buntinas, Panda, Sadayappan; IPPS 2001).

The package simulates the paper's entire stack -- Myrinet fabric, LANai
NICs running the GM control program, GM's host API -- and implements the
paper's contribution on top: barrier synchronization executed by the NIC
firmware, with both the pairwise-exchange (PE) and gather-and-broadcast
(GB) algorithms, compared against host-based baselines.

Quick start::

    from repro import ClusterConfig, build_cluster, barrier
    from repro.cluster.runner import run_on_group

    def program(ctx):
        yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")
        return ctx.now

    cluster = build_cluster(ClusterConfig(num_nodes=8))
    finish_times = run_on_group(cluster, program)

See ``examples/`` for complete scenarios and
``tests/test_paper_claims.py`` for the paper's figures, each measured and
checked against EXPERIMENTS.md.
"""

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.core.barrier import BarrierHandle, barrier, fuzzy_barrier
from repro.core.collectives import allreduce, bcast, reduce
from repro.core.host_barrier import (
    host_allreduce,
    host_barrier,
    host_bcast,
    host_reduce,
)
from repro.core.topology_calc import BarrierPlan, gb_plan, pe_plan
from repro.gm.constants import BarrierReliability
from repro.host.cpu import HostParams
from repro.network.fabric import NetworkParams
from repro.nic.lanai import LANAI_4_3, LANAI_7_2, LANAI_9_2, LanaiModel
from repro.nic.nic import NicParams

__version__ = "1.0.0"

__all__ = [
    "BarrierHandle",
    "BarrierPlan",
    "BarrierReliability",
    "Cluster",
    "ClusterConfig",
    "HostParams",
    "LANAI_4_3",
    "LANAI_7_2",
    "LANAI_9_2",
    "LanaiModel",
    "NetworkParams",
    "NicParams",
    "allreduce",
    "barrier",
    "bcast",
    "build_cluster",
    "fuzzy_barrier",
    "gb_plan",
    "host_allreduce",
    "host_barrier",
    "host_bcast",
    "host_reduce",
    "pe_plan",
    "reduce",
    "__version__",
]
