"""Bit-identical-trace gate for the event-engine rewrite.

The two-tier scheduler + timer wheel must be an invisible optimization:
every workload in ``tests/golden_engine.py`` has to execute the exact
same events in the exact same order as the pre-rewrite single-heap
engine.  Each entry of ``tests/data/engine_golden.json`` pins a rows
digest (trace rows, per-rank results, final ``sim.now``) and, with its
own assertion, the exact ``events_executed`` count.  A rows diff means
observable behaviour changed and must be fixed, not re-recorded; a
count diff with identical rows means the engine runs more or fewer
callbacks for the same behaviour (see golden_engine's docstring for the
only legitimate regeneration case).

Covers tracing ON (traced_barrier_pe16), tracing OFF
(untraced_measurements), pure scheduler semantics (engine_storm), the
retransmit-timer paths (faulted_barrier_gb8), every host algorithm
plus NIC PE/dissemination at ragged sizes (host_algorithms) and the NIC
tree program -- GB barrier, reduce, allreduce, bcast -- clean, lossy,
with two ports per NIC and with a late-opening port (nic_tree_ops), and
CPU charges torn down by NIC pauses and crashes (faulted_cpu).
"""

from __future__ import annotations

import json

import pytest

from tests.golden_engine import GOLDEN_PATH, WORKLOADS


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_digest_matches_single_heap_engine(name, golden):
    assert name in golden, (
        f"workload {name!r} has no recorded digest; run "
        "`PYTHONPATH=src:. python tests/golden_engine.py` on a known-good "
        "engine and commit tests/data/engine_golden.json"
    )
    rows, events = WORKLOADS[name]()
    pinned = golden[name]
    assert rows == pinned["rows"], (
        f"rows digest changed for {name!r}: trace rows, per-rank results "
        "or the final sim.now differ, so observable behaviour changed "
        f"(expected {pinned['rows'][:16]}…, got {rows[:16]}…)"
    )
    assert events == pinned["events"], (
        f"events_executed changed for {name!r} with identical rows: "
        f"expected {pinned['events']}, got {events}; the engine now runs a "
        "different number of callbacks for the same observable behaviour"
    )
