"""Deterministic engine workloads for the bit-identical-trace gate.

The event-engine rewrite (two-tier scheduler + timer wheel) must not
change a single observable event: same `(time, priority, seq)` execution
order, same trace records, same measured latencies.  This module defines
a handful of deterministic workloads and reduces each to two parts:

* ``rows`` -- a canonical sha256 digest of what the workload observes:
  trace rows, per-rank results and the final ``sim.now``;
* ``events`` -- the exact number of engine callbacks it executed
  (``events_executed``, summed over every simulator the workload ran).

``tests/data/engine_golden.json`` holds both parts and
``test_engine_trace_regression.py`` asserts each separately, so a change
that only removes bookkeeping events (same rows, fewer events) is told
apart from one that changes behaviour.

``tests/data/charge_metrics_golden.json`` pins the DMA, PCI and CPU
entries of a 16-node metrics snapshot (:func:`charge_metrics`), which
``tests/test_metrics.py`` compares exactly.

Regenerate the golden files (only when an *intentional* semantic change
is made, never to paper over a diff) with::

    PYTHONPATH=src:. python tests/golden_engine.py

Trace/span ids are allocated from process-global counters, so they are
renumbered by order of first appearance before hashing -- the digests
are then independent of whatever ran earlier in the process.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from typing import Any, Dict, List, Tuple
from unittest import mock

from repro.analysis import experiments
from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.analysis.experiments import measure_barrier
from repro.cluster.builder import build_cluster
from repro.cluster.runner import RankContext, run_on_group
from repro.core import host_allreduce, host_barrier, host_bcast, host_reduce
from repro.core.barrier import barrier
from repro.core.collectives import allreduce, bcast, reduce
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    LossRule,
    NicCrash,
    NicPause,
    NodeCrash,
)
from repro.gm.events import PeerFailure
from repro.sim.engine import PRIORITY_HIGH, PRIORITY_LOW, Simulator
from repro.sim.tracing import TraceContext

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"
CHARGE_METRICS_PATH = Path(__file__).parent / "data" / "charge_metrics_golden.json"

#: What each workload returns: (rows digest, events executed).
Pinned = Tuple[str, int]


def _digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Workload 1: pure-engine schedule/cancel storm.
# ----------------------------------------------------------------------
def engine_storm() -> Pinned:
    """A seeded storm of schedules, cancellations and priorities.

    Exercises exactly what the scheduler rewrite touches: same-instant
    priority ordering, FIFO among equals, lazy cancellation, long-delay
    entries (the overflow tier), short chains (the near buckets) and
    timer-style cancel-before-fire patterns.
    """
    rng = random.Random(0xC0FFEE)
    sim = Simulator()
    log: List[tuple] = []
    handles: List = []

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        # Every execution schedules a few follow-ons, seeded.
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice([0.0, 0.01, 0.7, 1.0, 5.0, 93.5, 800.0, 4321.0])
            prio = rng.choice([PRIORITY_HIGH, 0, 0, 0, PRIORITY_LOW])
            h = sim.schedule(delay, fire, rng.randrange(1000), priority=prio)
            handles.append(h)
        # Cancel a random earlier handle now and then (timer churn).
        if handles and rng.random() < 0.4:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(40):
        sim.schedule(rng.random() * 10.0, fire, i)
    sim.run(until=9000.0)
    sim.run()  # drain the tail
    log.append(("final", sim.now))
    return _digest(log), sim.events_executed


# ----------------------------------------------------------------------
# Workload 2: traced 16-node NIC-PE barrier (full stack, tracing ON).
# ----------------------------------------------------------------------
def _canonical_payload(payload: Dict[str, Any], ids: Dict, label: str) -> Dict[str, Any]:
    out = {}
    for key, value in payload.items():
        if key == "key":
            # Packet/token keys come from process-global counters too;
            # renumber them like trace/span ids so the digest doesn't
            # depend on what ran earlier in the process.  Namespaced by
            # label because packet ids and multicast token ids are
            # *different* counters whose raw values collide.
            out[key] = ids.setdefault(("k", label, value), len(ids))
        elif isinstance(value, TraceContext):
            out[key] = {
                "trace": ids.setdefault(("t", value.trace_id), len(ids)),
                "span": ids.setdefault(("s", value.span_id), len(ids)),
                "parent": (
                    None
                    if value.parent_span_id is None
                    else ids.setdefault(("s", value.parent_span_id), len(ids))
                ),
                "hop": value.hop,
                "attempt": value.attempt,
            }
        else:
            out[key] = str(value)
    return out


def traced_barrier(num_nodes: int = 16, repetitions: int = 3) -> Pinned:
    config = LANAI_4_3_SYSTEM.cluster_config(num_nodes).with_(trace=True)
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(repetitions):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

    run_on_group(cluster, program, max_events=5_000_000)
    ids: Dict = {}
    rows = [
        (ev.time, ev.category, ev.label, _canonical_payload(ev.payload, ids, ev.label))
        for ev in cluster.tracer.events
    ]
    rows.append(("final", cluster.sim.now))
    return _digest(rows), cluster.sim.events_executed


# ----------------------------------------------------------------------
# Workload 3: untraced measurements (tracing OFF) -- latencies + counts.
# ----------------------------------------------------------------------
def untraced_measurements() -> Pinned:
    """Three 16-node ``measure_barrier`` calls: latencies, plus the
    events of the clusters they built (captured around the builder)."""
    built: List = []

    def build(config):
        cluster = build_cluster(config)
        built.append(cluster)
        return cluster

    rows = []
    with mock.patch.object(experiments, "build_cluster", build):
        for nic_based, algorithm in ((True, "pe"), (False, "pe"), (True, "gb")):
            m = measure_barrier(
                LANAI_4_3_SYSTEM.cluster_config(16),
                nic_based=nic_based,
                algorithm=algorithm,
                repetitions=3,
                warmup=1,
            )
            rows.append((algorithm, nic_based, m.mean_latency_us, m.per_barrier_us))
    return _digest(rows), sum(c.sim.events_executed for c in built)


# ----------------------------------------------------------------------
# Workload 4: faulted run (retransmit timers + recovery paths).
# ----------------------------------------------------------------------
def faulted_barrier() -> Pinned:
    """Eight nodes, four barriers of the *default* algorithm (NIC PE --
    despite the historical ``faulted_barrier_gb8`` key) under seeded 5%
    loss and a link flap on the SEPARATE barrier stream: final
    ``sim.now`` and ``events_executed``.  NIC GB under loss is pinned by
    ``nic_tree_ops``."""
    from dataclasses import replace

    from repro.gm.constants import BarrierReliability

    base = LANAI_4_3_SYSTEM.cluster_config(8)
    config = base.with_(
        nic_params=replace(
            base.nic_params,
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
        ),
        fault_plan=FaultPlan(
            seed=7,
            loss=[LossRule(rate=0.05)],
            flaps=[LinkFlap(node=3, down_at=40.0, up_at=120.0, direction="both")],
        ),
    )
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(4):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

    run_on_group(cluster, program, max_events=5_000_000)
    return _digest(("final", cluster.sim.now)), cluster.sim.events_executed


# ----------------------------------------------------------------------
# Workload 5: every host algorithm + NIC PE/dissemination at ragged sizes.
# ----------------------------------------------------------------------
def host_algorithms(repetitions: int = 2) -> Pinned:
    """Host barriers (PE, dissemination, GB), host data collectives and
    NIC PE/dissemination barriers: each run's per-rank exit times,
    returned values, final ``sim.now`` and ``events_executed``.

    The sizes are deliberately non-powers-of-two (5, 6) next to 8, so the
    PE proxy/extra steps and unequal tree depths are covered.
    """
    def run(n: int, step) -> tuple:
        cluster = build_cluster(LANAI_4_3_SYSTEM.cluster_config(n))

        def program(ctx):
            out = []
            for rep in range(repetitions):
                value = yield from step(ctx, rep)
                out.append((ctx.now, value))
            return out

        results = run_on_group(cluster, program, max_events=5_000_000)
        events.append(cluster.sim.events_executed)
        return results, cluster.sim.now

    def host(algorithm, dimension=None):
        def step(ctx, rep):
            yield from host_barrier(
                ctx.port, ctx.group, ctx.rank, algorithm=algorithm, dimension=dimension
            )
        return step

    def nic(algorithm):
        def step(ctx, rep):
            yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm=algorithm)
        return step

    def collective(fn, **kwargs):
        def step(ctx, rep):
            value = (ctx.rank + 1) * (rep + 2)
            result = yield from fn(ctx.port, ctx.group, ctx.rank, value, dimension=2, **kwargs)
            return result
        return step

    events: List[int] = []
    rows = []
    for n in (5, 6, 8):
        for algorithm in ("pe", "dissemination"):
            rows.append(("host", algorithm, n, run(n, host(algorithm))))
    for dimension in (1, 2, 3):
        rows.append(("host", "gb", dimension, run(8, host("gb", dimension))))
    rows.append(("host", "reduce", run(6, collective(host_reduce, op="sum"))))
    rows.append(("host", "bcast", run(6, collective(host_bcast))))
    rows.append(("host", "allreduce", run(6, collective(host_allreduce, op="max"))))
    for algorithm in ("pe", "dissemination"):
        rows.append(("nic", algorithm, run(6, nic(algorithm))))
    return _digest(rows), sum(events)


# ----------------------------------------------------------------------
# Workload 6: the NIC tree program (GB barrier, reduce, allreduce, bcast).
# ----------------------------------------------------------------------
def nic_tree_ops(repetitions: int = 2) -> Pinned:
    """Every NIC-offloaded tree operation: per-rank exit times and
    results, final ``sim.now`` and ``events_executed`` of each run.

    * a *traced* GB barrier at sizes 5, 6, 8 with dimensions 1--3 (its
      canonical trace rows are digested too);
    * untraced reduce, allreduce and bcast at the same sizes/dimensions;
    * GB and allreduce under seeded 5% loss on both reliable barrier
      streams (SEPARATE and TOKEN_PER_DESTINATION);
    * two ports per NIC with ``local_barrier_optimization`` on, so tree
      neighbours on one NIC synchronize without a wire message;
    * a late-opening port, so arrivals are recorded for a closed port,
      REJECTed when it opens and resent (Section 3.2).

    Collective trace records are deliberately not digested.
    """
    from dataclasses import replace

    from repro.gm.constants import BarrierReliability
    from repro.sim.primitives import Timeout

    def run(config, endpoints, step, late=None, reps=repetitions) -> tuple:
        """Spawn one rank per endpoint (``late`` = (rank, delay): that
        rank opens its port only after ``delay`` us)."""
        cluster = build_cluster(config)
        group = tuple(endpoints)
        out: Dict[int, list] = {}

        def program(rank):
            if late is not None and late[0] == rank:
                yield Timeout(late[1])
            port = cluster.open_port(*group[rank])
            ctx = RankContext(cluster=cluster, port=port, rank=rank, group=group)
            out[rank] = []
            for rep in range(reps):
                value = yield from step(ctx, rep)
                out[rank].append((ctx.now, value))

        for rank in range(len(group)):
            cluster.spawn(program(rank))
        cluster.run(max_events=5_000_000)
        assert len(out) == len(group) and all(
            len(v) == reps for v in out.values()
        ), "a rank did not finish"
        events.append(cluster.sim.events_executed)
        rows = [sorted(out.items()), cluster.sim.now]
        if config.trace:
            ids: Dict = {}
            rows.append([
                (ev.time, ev.category, ev.label,
                 _canonical_payload(ev.payload, ids, ev.label))
                for ev in cluster.tracer.events
            ])
        return tuple(rows)

    def gb(dimension):
        def step(ctx, rep):
            yield from barrier(
                ctx.port, ctx.group, ctx.rank, algorithm="gb", dimension=dimension
            )
        return step

    def collective(fn, dimension, **kwargs):
        def step(ctx, rep):
            value = (ctx.rank + 1) * (rep + 2)
            result = yield from fn(
                ctx.port, ctx.group, ctx.rank, value, dimension=dimension, **kwargs
            )
            return result
        return step

    def config(n, **nic_changes):
        base = LANAI_4_3_SYSTEM.cluster_config(n)
        return base.with_(nic_params=replace(base.nic_params, **nic_changes))

    def endpoints(n):
        return [(node, 2) for node in range(n)]

    events: List[int] = []
    ops = (
        ("reduce", reduce, {"op": "sum"}),
        ("allreduce", allreduce, {"op": "max"}),
        ("bcast", bcast, {}),
    )
    rows = []
    for n in (5, 6, 8):
        for dimension in (1, 2, 3):
            rows.append(("gb", n, dimension, run(
                config(n).with_(trace=True), endpoints(n), gb(dimension)
            )))
            for name, fn, kwargs in ops:
                rows.append((name, n, dimension, run(
                    config(n), endpoints(n), collective(fn, dimension, **kwargs)
                )))
    for mode in (
        BarrierReliability.SEPARATE, BarrierReliability.TOKEN_PER_DESTINATION
    ):
        lossy = config(
            8,
            barrier_reliability=mode,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
        ).with_(fault_plan=FaultPlan(seed=11, loss=[LossRule(rate=0.05)]))
        rows.append(("lossy", mode.value, "gb", run(lossy, endpoints(8), gb(2))))
        rows.append(("lossy", mode.value, "allreduce", run(
            lossy, endpoints(8), collective(allreduce, 2, op="sum")
        )))
    two_ports = [(node, port) for node in range(4) for port in (2, 4)]
    local = config(4, local_barrier_optimization=True)
    rows.append(("local", "gb", run(local, two_ports, gb(2))))
    for name, fn, kwargs in ops:
        rows.append(("local", name, run(
            local, two_ports, collective(fn, 2, **kwargs)
        )))
    # Four nodes, binary tree: rank 0 is the root, rank 1 the inner node
    # above leaf 3, rank 2 a leaf under the root.  Reduce and bcast do
    # not synchronize, so back-to-back instances toward a closed port
    # would leave two messages behind one closed-port record: they run
    # once.
    late_cases = (
        ("gb", gb(2), 1, repetitions),
        ("bcast", collective(bcast, 2), 2, 1),
        ("reduce", collective(reduce, 2, op="sum"), 0, 1),
        ("allreduce", collective(allreduce, 2, op="sum"), 0, repetitions),
    )
    for name, step, late_rank, reps in late_cases:
        rows.append(("late", name, run(
            config(4), endpoints(4), step, late=(late_rank, 300.0), reps=reps
        )))
    return _digest(rows), sum(events)


# ----------------------------------------------------------------------
# Workload 7: CPU charges under NIC pauses, compute phases and crashes.
# ----------------------------------------------------------------------
def faulted_cpu(repetitions: int = 8) -> Pinned:
    """A traced 8-node NIC-PE barrier loop whose CPU charges are torn
    down in every way the fault plan can: canonical trace rows, per-rank
    results, final ``sim.now`` and ``events_executed``.

    * ``NicPause`` on NICs 1 and 5 holds the LANai while the MCP
      machines charge it, so pauses and firmware charges queue on one
      CPU resource;
    * every rank runs a host ``Node.compute`` phase before each barrier;
    * ``NicCrash`` of NIC 5 lands during its pause and kills a machine
      queued behind the pause;
    * ``NodeCrash`` of node 3 kills its rank while it holds the host CPU
      and its receive machine while it holds the LANai;
    * the survivors abort with the detector's ``PeerFailure``, recorded
      with its suspects.
    """
    config = LANAI_4_3_SYSTEM.cluster_config(8).with_(
        trace=True,
        fault_plan=FaultPlan(
            seed=5,
            pauses=[
                NicPause(node=1, at_us=20.0, duration_us=15.0),
                NicPause(node=5, at_us=60.0, duration_us=30.0),
            ],
            crashes=[NodeCrash(node=3, at_us=110.0)],
            nic_crashes=[NicCrash(node=5, at_us=85.0)],
        ),
    )
    cluster = build_cluster(config)

    def program(ctx):
        out = []
        for _ in range(repetitions):
            yield from ctx.node.compute(2.0 + ctx.rank % 3)
            try:
                yield from barrier(ctx.port, ctx.group, ctx.rank)
            except PeerFailure as failure:
                out.append((ctx.now, type(failure).__name__, sorted(failure.suspects)))
                return out
            out.append((ctx.now, "ok"))
        return out

    results = run_on_group(cluster, program, max_events=5_000_000)
    ids: Dict = {}
    rows = [
        (ev.time, ev.category, ev.label, _canonical_payload(ev.payload, ids, ev.label))
        for ev in cluster.tracer.events
    ]
    rows.append(("final", results, cluster.sim.now))
    return _digest(rows), cluster.sim.events_executed


WORKLOADS = {
    "engine_storm": engine_storm,
    "traced_barrier_pe16": traced_barrier,
    "untraced_measurements": untraced_measurements,
    "faulted_barrier_gb8": faulted_barrier,
    "host_algorithms": host_algorithms,
    "nic_tree_ops": nic_tree_ops,
    "faulted_cpu": faulted_cpu,
}


#: Snapshot entries fed by CPU and PCI charges: the LANai's busy time and
#: utilization, each DMA engine's transfers, bytes, bus busy time and
#: bus-wait histogram, and the depth high-water marks of the SDMA inbox
#: and RDMA queue.
_CHARGE_KEY = re.compile(r"nic\d+\.(cpu|sdma|rdma)[._]")


def charge_metrics(repetitions: int = 3) -> Dict[str, Dict[str, float]]:
    """The DMA, PCI and CPU entries of a 16-node metrics snapshot after
    ``repetitions`` NIC-based and, on a second cluster, host-based PE
    barriers."""
    out = {}
    for name, op in (("nic-pe", barrier), ("host-pe", host_barrier)):
        config = LANAI_4_3_SYSTEM.cluster_config(16).with_(metrics=True)
        cluster = build_cluster(config)

        def program(ctx, op=op):
            for _ in range(repetitions):
                yield from op(ctx.port, ctx.group, ctx.rank)

        run_on_group(cluster, program, max_events=5_000_000)
        out[name] = {
            key: value
            for key, value in sorted(cluster.metrics.snapshot().items())
            if _CHARGE_KEY.match(key)
        }
    return out


def compute_digests() -> Dict[str, Dict[str, Any]]:
    out = {}
    for name, fn in WORKLOADS.items():
        rows, events = fn()
        out[name] = {"events": events, "rows": rows}
    return out


def main() -> None:
    digests = compute_digests()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for name, pinned in digests.items():
        print(f"  {name}: rows {pinned['rows'][:16]}…, {pinned['events']} events")
    snapshot = charge_metrics()
    CHARGE_METRICS_PATH.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {CHARGE_METRICS_PATH}: "
          f"{sum(map(len, snapshot.values()))} charge metrics")


if __name__ == "__main__":
    main()
