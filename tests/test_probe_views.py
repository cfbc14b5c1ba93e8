"""Pin what the two probe views show: the metrics snapshot and the
telemetry series of one faulted run, and the hotspot attribution that
reads those series.

The data file ``tests/data/probe_views_golden.json`` records:

* ``snapshot`` -- the full ``cluster.metrics.snapshot()`` of a 4-node
  NIC-PE run with metrics and telemetry on (``sample_us=2``) under a
  seeded fault plan whose fault, retransmit and detector probes all
  read non-zero;
* ``series`` -- for each telemetry series of that run, its component,
  kind, unit and a sha256 of its samples;
* ``hotspots`` -- ``run_telemetry_barrier(16, sample_us=2.0)``'s
  ``HotspotReport.summary()``.

Every pinned entry must still be there with an equal value; a view may
gain entries.  A series that moved to a new name is looked up under
``RENAMED.get(name, name)``.

Regenerate (only when a pinned figure changes on purpose)::

    PYTHONPATH=src python tests/test_probe_views.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.hotspots import run_telemetry_barrier
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.faults.plan import (
    FaultPlan,
    LinkFlap,
    LossRule,
    NicPause,
    NodeCrash,
    PortStall,
)
from repro.gm.constants import BarrierReliability
from repro.gm.events import PeerFailure
from repro.mpi.communicator import Communicator, MpiParams
from repro.nic.nic import NicParams

GOLDEN = Path(__file__).parent / "data" / "probe_views_golden.json"

#: Pinned series name -> the name it is shown under now.  A quantity
#: that both views showed under two names now has the snapshot's name.
RENAMED: dict = {
    **{f"nic{n}.cpu.util": f"nic{n}.cpu.busy_us" for n in range(4)},
    **{f"nic{n}.{e}.bytes_rate": f"nic{n}.{e}.bytes"
       for n in range(4) for e in ("sdma", "rdma")},
    **{f"sw0.p{n}.util": f"link.down:sw0.{n}->nic{n}.busy_us" for n in range(4)},
    **{f"nic{n}.tx.util": f"link.up:nic{n}->sw0.{n}.busy_us" for n in range(4)},
}


def faulted_run():
    """The pinned 4-node run: loss, corruption, a flap, a port stall, a
    NIC pause and a node crash, with both views on."""
    plan = FaultPlan(
        seed=7,
        loss=[LossRule(rate=0.05), LossRule(rate=0.03, corrupt=True)],
        flaps=[LinkFlap(node=1, down_at=60.0, up_at=90.0)],
        stalls=[PortStall(switch=0, port=2, at_us=30.0, duration_us=40.0)],
        pauses=[NicPause(node=2, at_us=20.0, duration_us=30.0)],
        crashes=[NodeCrash(node=3, at_us=400.0)],
    )
    config = ClusterConfig(
        num_nodes=4,
        seed=7,
        metrics=True,
        telemetry=True,
        telemetry_sample_us=2.0,
        nic_params=NicParams(
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
        ),
        fault_plan=plan,
    )

    def program(ctx):
        comm = Communicator(
            ctx.port, ctx.group, ctx.rank, MpiParams(nic_collectives=True)
        )
        try:
            for _ in range(6):
                yield from comm.barrier(algorithm="pe")
        except PeerFailure as failure:
            ctx.port.acknowledge_failures(set(failure.suspects))
        yield from comm.shrink()
        yield from comm.barrier(algorithm="pe")

    with build_cluster(config) as cluster:
        run_on_group(cluster, program, max_events=2_000_000)
        snapshot = cluster.metrics.snapshot()
    return snapshot, cluster.telemetry


def series_record(series) -> dict:
    samples = json.dumps(series.samples()).encode()
    return {
        "component": series.component,
        "kind": series.kind,
        "unit": series.unit,
        "samples_sha256": hashlib.sha256(samples).hexdigest(),
    }


def current_views() -> dict:
    snapshot, telemetry = faulted_run()
    _, report = run_telemetry_barrier(16, sample_us=2.0)
    return {
        "snapshot": snapshot,
        "series": {
            name: series_record(s)
            for name, s in sorted(telemetry.series.items())
        },
        "hotspots": report.summary(),
    }


class TestProbeViewsPinned:
    @property
    def golden(self) -> dict:
        return json.loads(GOLDEN.read_text())

    def test_fault_retransmit_and_detector_probes_are_exercised(self):
        snap = self.golden["snapshot"]
        for name in ("faults.drops", "faults.corruptions", "faults.flaps",
                     "faults.stalls", "faults.pauses", "faults.crashes",
                     "nic1.retransmits", "nic0.fd.suspects",
                     "nic0.fd.heartbeats"):
            assert snap[name] > 0, name

    def test_views_keep_every_pinned_entry(self):
        snapshot, telemetry = faulted_run()
        for name, value in self.golden["snapshot"].items():
            assert name in snapshot, name
            assert snapshot[name] == value, name
        series = telemetry.series
        for name, record in self.golden["series"].items():
            now = RENAMED.get(name, name)
            assert now in series, (name, now)
            assert series_record(series[now]) == record, name

    def test_hotspot_summary_is_unchanged(self):
        _, report = run_telemetry_barrier(16, sample_us=2.0)
        assert report.summary() == self.golden["hotspots"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_views(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
