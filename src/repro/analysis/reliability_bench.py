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
from typing import List, Optional

from repro.faults.inject import CRASH_SUSPECT_AFTER_US
from repro.faults.soak import combo_seed, run_soak_combo

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

    Runs one crash-family soak combination with a single post-shrink
    barrier (the soak checks the fail-stop contract) and reads its
    detectors and barrier timeline.  Returns ``{"detect_us": [...],
    "recover_us": [...], "shrunken_size": int, "victim": int}`` with one
    detect sample per surviving NIC and one recover sample per surviving
    rank.
    """
    run = run_soak_combo(
        family="crash",
        seed=seed,
        label=label,
        algorithm=algorithm,
        num_nodes=num_nodes,
        phase="mid",
        crash_at_us=crash_at_us,
        repetitions=repetitions,
        post_shrink=1,
        max_events=max_events,
    )
    victim = run.row.victim
    detectors = [
        node.nic.detector
        for node in run.cluster.nodes
        if node.node_id != victim and node.nic.detector is not None
    ]
    recovered_at = run.exits[repetitions]
    return {
        "detect_us": [
            d.suspected_at[victim] - crash_at_us
            for d in detectors
            if victim in d.suspected_at
        ],
        "recover_us": [
            recovered_at[rank] - crash_at_us for rank in sorted(recovered_at)
        ],
        "shrunken_size": run.row.shrunken_size,
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
            if sample["shrunken_size"] != num_nodes - 1:
                raise AssertionError(
                    f"{label} n={num_nodes}: survivors shrank to "
                    f"{sample['shrunken_size']}, not {num_nodes - 1}"
                )
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
