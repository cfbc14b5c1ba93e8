"""Bit-identical gate for the fault-soak harness.

Each entry of ``tests/data/soak_golden.json`` pins one soak sweep: a
sha256 digest of its rows without their ``events`` field and, with
their own assertion, each combination's ``events_executed`` in row
order and their sum.  A row is projected onto the field names listed in
the entry before hashing, so the pin does not depend on which other
fields the row type carries.  A digest diff means some combination now
runs differently (other fault timing, another final simulated time,
different recovery counters) and must be fixed, not re-recorded; an
events diff with identical rows means the engine runs more or fewer
callbacks for the same behaviour.

Record the pins with ``PYTHONPATH=src:. python tests/test_soak_golden.py``
on a known-good tree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults import run_chaos_soak, run_crash_soak

GOLDEN_PATH = Path(__file__).parent / "data" / "soak_golden.json"

#: name -> (sweep, pinned row fields)
SWEEPS = {
    "chaos_soak_11_n4_r2": (
        lambda: run_chaos_soak(11, num_nodes=4, repetitions=2),
        ["label", "reliability", "seed", "repetitions", "final_time_us",
         "drops", "corruptions", "retransmits", "duplicates",
         "future_dropped", "nacks", "alarms"],
    ),
    "crash_soak_7_sizes_4_8": (
        lambda: run_crash_soak(7, sizes=(4, 8)),
        ["label", "phase", "num_nodes", "seed", "victim", "crash_at_us",
         "observed_failure", "shrunken_size", "final_time_us",
         "suspects_declared"],
    ),
}


def measure(name: str, fields=None) -> dict:
    """Run one sweep; return its rows digest, per-row and total events
    and the pinned fields."""
    sweep, default_fields = SWEEPS[name]
    fields = fields or default_fields
    rows = [row.to_dict() for row in sweep().rows]
    projected = [{key: row[key] for key in fields} for row in rows]
    blob = json.dumps(projected, sort_keys=True, separators=(",", ":"))
    return {
        "rows": hashlib.sha256(blob.encode()).hexdigest(),
        "events": sum(row["events"] for row in rows),
        "events_per_row": [row["events"] for row in rows],
        "count": len(rows),
        "fields": list(fields),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_soak_rows_match_pin(name, golden):
    pinned = golden[name]
    got = measure(name, pinned["fields"])
    assert got["count"] == pinned["count"], (
        f"{name}: {got['count']} combinations, pinned {pinned['count']}"
    )
    assert got["rows"] == pinned["rows"], (
        f"rows digest changed for {name!r}: some combination's outcome, "
        f"final time or recovery counters differ (expected "
        f"{pinned['rows'][:16]}…, got {got['rows'][:16]}…)"
    )
    assert got["events_per_row"] == pinned["events_per_row"], (
        f"per-row events_executed changed for {name!r} with identical rows"
    )
    assert got["events"] == pinned["events"], (
        f"summed events_executed changed for {name!r}: expected "
        f"{pinned['events']}, got {got['events']}"
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: measure(name) for name in sorted(SWEEPS)},
                   indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
