"""Reliability benchmark: time-to-detect and time-to-recover.

The fail-stop stack (NIC heartbeat failure detector -> typed
:class:`~repro.gm.events.PeerFailure` aborts -> ``comm.shrink()``) turns
a dead node from an indefinite hang into a bounded recovery.  This
benchmark measures how bounded: for a sweep of (algorithm, cluster
size) scenarios it kills one node mid-barrier and records, per
surviving NIC,

* **time-to-detect** -- the simulated interval between the crash
  instant and the survivor's detector declaring the victim suspect
  (bounded by ``suspect_after`` plus one heartbeat of phase), and
* **time-to-recover** -- the interval between the crash instant and the
  survivor completing its first *post-shrink* barrier on the agreed
  smaller group (detection + abort + shrink consensus + one barrier).

All quantities are simulated time, so the artifact is bit-deterministic
for a given seed: the CI sentinel gate
(``python -m repro.analysis.sentinel --strict --baseline
BENCH_reliability.json``) flags any drift of the percentiles at all.

CLI::

    python -m repro.analysis.reliability_bench --out BENCH_reliability.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.faults.inject import CRASH_SUSPECT_AFTER_US
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.soak import combo_seed
from repro.gm.events import PeerFailure
from repro.nic.nic import NicParams

#: (label, algorithm) scenarios the bench sweeps -- one host algorithm,
#: one NIC engine and the non-blocking schedule engine, to cover all
#: three abort paths.
BENCH_ALGORITHMS = (
    ("host-pe", "pe"),
    ("nic-dissemination", "dissemination"),
    ("nbc-ibarrier", "nbc"),
)

BENCH_SIZES = (4, 8, 16)

#: Mid-barrier crash instant (matches the crash soak's "mid" phase).
BENCH_CRASH_AT_US = 90.0


def run_reliability_scenario(
    *,
    seed: int,
    label: str,
    algorithm: str,
    num_nodes: int,
    crash_at_us: float = BENCH_CRASH_AT_US,
    repetitions: int = 3,
    max_events: int = 5_000_000,
) -> dict:
    """Kill one node mid-barrier; measure detection and recovery.

    Returns ``{"detect_us": [...], "recover_us": [...],
    "shrunken_size": int, "victim": int}`` with one detect sample per
    surviving NIC and one recover sample per surviving rank.
    """
    from repro.mpi.communicator import Communicator
    from repro.sim.primitives import Timeout

    victim = seed % num_nodes
    cluster = build_cluster(
        ClusterConfig(
            num_nodes=num_nodes,
            seed=seed,
            nic_params=NicParams(
                retransmit_timeout_us=300.0,
                barrier_retransmit_timeout_us=200.0,
            ),
            fault_plan=FaultPlan(
                seed=seed,
                crashes=[NodeCrash(node=victim, at_us=crash_at_us)],
            ),
        )
    )
    recovered_at: Dict[int, float] = {}
    final_sizes: Dict[int, int] = {}

    def one_barrier(ctx, comm):
        if algorithm == "nbc":
            request = yield from comm.ibarrier()
            for _ in range(4):
                yield from ctx.node.compute(10.0)
                yield from request.test()
            yield from request.wait()
        else:
            old = comm.params
            comm.params = old.with_(
                nic_collectives=label.startswith("nic-")
            )
            try:
                yield from comm.barrier(algorithm=algorithm)
            finally:
                comm.params = old

    def program(ctx):
        yield Timeout(float((ctx.rank * 7) % num_nodes))
        comm = Communicator(ctx.port, ctx.group, ctx.rank)
        for _ in range(repetitions):
            try:
                yield from one_barrier(ctx, comm)
            except PeerFailure as failure:
                ctx.port.acknowledge_failures(set(failure.suspects))
                break
        yield from comm.shrink()
        yield from one_barrier(ctx, comm)
        recovered_at[ctx.rank] = ctx.now
        final_sizes[ctx.rank] = len(comm.group)

    run_on_group(cluster, program, max_events=max_events)

    detect_us: List[float] = []
    for node in cluster.nodes:
        if node.node_id == victim:
            continue
        detector = node.nic.detector
        if detector is not None and victim in detector.suspected_at:
            detect_us.append(detector.suspected_at[victim] - crash_at_us)
    recover_us = [
        at - crash_at_us for rank, at in sorted(recovered_at.items())
    ]
    sizes = set(final_sizes.values())
    assert len(sizes) == 1, f"survivors disagree on group size: {sizes}"
    return {
        "detect_us": detect_us,
        "recover_us": recover_us,
        "shrunken_size": sizes.pop(),
        "victim": victim,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def run_reliability_bench(seed: int = 42) -> dict:
    """Sweep every bench scenario; return the flat JSON-able document.

    Every key ending in ``_us`` is lower-is-better for the sentinel.
    """
    detect_all: List[float] = []
    recover_all: List[float] = []
    scenarios = 0
    index = 0
    for label, algorithm in BENCH_ALGORITHMS:
        for num_nodes in BENCH_SIZES:
            sample = run_reliability_scenario(
                seed=combo_seed(seed, index),
                label=label,
                algorithm=algorithm,
                num_nodes=num_nodes,
            )
            assert sample["shrunken_size"] == num_nodes - 1
            detect_all.extend(sample["detect_us"])
            recover_all.extend(sample["recover_us"])
            scenarios += 1
            index += 1
    return {
        "benchmark": "reliability",
        "seed": seed,
        "scenarios": scenarios,
        "samples": len(detect_all),
        "suspect_after_us": CRASH_SUSPECT_AFTER_US,
        "detect_p50_us": round(percentile(detect_all, 0.50), 3),
        "detect_p90_us": round(percentile(detect_all, 0.90), 3),
        "detect_max_us": round(max(detect_all), 3),
        "recover_p50_us": round(percentile(recover_all, 0.50), 3),
        "recover_p90_us": round(percentile(recover_all, 0.90), 3),
        "recover_max_us": round(max(recover_all), 3),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write the flat JSON artifact here "
                             "(e.g. BENCH_reliability.json)")
    args = parser.parse_args(argv)
    doc = run_reliability_bench(args.seed)
    for key, value in doc.items():
        print(f"{key:>18}: {value}")
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
