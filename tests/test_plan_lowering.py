"""Pin the NIC barrier plans (``pe_plan``, ``dissemination_plan``,
``gb_plan``) for every group size 1..33, every rank and every GB
dimension.

``tests/data/plan_golden.json`` holds one sha256 per (algorithm, size)
over the plans of every rank.  The digests were recorded when the plans
were still computed from hand-written step lists, before they became
lowerings of compiled schedules; a diff means the NIC would now run a
different protocol.  Regenerate (only for an intentional protocol
change) with::

    PYTHONPATH=src:. python tests/test_plan_lowering.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.topology_calc import dissemination_plan, gb_plan, pe_plan

PLAN_GOLDEN_PATH = Path(__file__).parent / "data" / "plan_golden.json"
SIZES = range(1, 34)


def _group(n):
    # Non-trivial endpoints so a rank/endpoint mix-up cannot go unseen.
    return [(10 + i, 2 + i % 3) for i in range(n)]


def _canonical(plan):
    return (
        plan.algorithm,
        plan.rank,
        plan.group_size,
        [(s.peer, s.send, s.recv) for s in plan.steps],
        plan.parent,
        list(plan.children),
    )


def _plans(algorithm, n):
    group = _group(n)
    if algorithm == "pe":
        return [_canonical(pe_plan(group, r)) for r in range(n)]
    if algorithm == "dissemination":
        return [_canonical(dissemination_plan(group, r)) for r in range(n)]
    return [
        _canonical(gb_plan(group, r, d))
        for d in range(1, max(n, 2))
        for r in range(n)
    ]


def plan_digests():
    return {
        algorithm: {
            str(n): hashlib.sha256(
                json.dumps(_plans(algorithm, n)).encode()
            ).hexdigest()
            for n in SIZES
        }
        for algorithm in ("pe", "dissemination", "gb")
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(PLAN_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("algorithm", ["pe", "dissemination", "gb"])
def test_plans_match_recorded(algorithm, golden):
    live = plan_digests()[algorithm]
    changed = [n for n in live if live[n] != golden[algorithm][n]]
    assert not changed, f"{algorithm} plans changed at sizes {changed}"


if __name__ == "__main__":
    PLAN_GOLDEN_PATH.write_text(
        json.dumps(plan_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {PLAN_GOLDEN_PATH}")
