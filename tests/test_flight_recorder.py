"""Flight recorder (PR 4 tentpole): the always-on black box.

The last K trace records are retained even with tracing off; a
``RetransmitLimitExceeded`` alarm (or any exception escaping
``Cluster.run``) ships the snapshot on the exception; a failed campaign
job returns it in its result record; a failed soak combo also dumps it
to disk.
"""

import json

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier as nic_barrier
from repro.faults.plan import FaultPlan, LinkFlap
from repro.gm.constants import BarrierReliability
from repro.nic.nic import NicParams, RetransmitLimitExceeded
from repro.sim.engine import Simulator
from repro.sim.tracing import (
    FLIGHT_RECORDER_SIZE,
    FlightRecorder,
    Tracer,
    dump_flight_records,
)
from tests.conftest import restart_id_counters


def doomed_config(**overrides) -> ClusterConfig:
    """Two nodes, node 1 permanently cut off: the barrier stream must
    give up with RetransmitLimitExceeded."""
    base = dict(
        num_nodes=2,
        nic_params=NicParams(
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
            max_retransmits=4,
        ),
        fault_plan=FaultPlan(
            seed=1,
            flaps=[LinkFlap(node=1, down_at=0.0, up_at=None,
                            direction="both")],
        ),
    )
    base.update(overrides)
    return ClusterConfig(**base)


def run_doomed_barrier(config):
    cluster = build_cluster(config)

    def program(ctx):
        yield from nic_barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")

    with pytest.raises(RetransmitLimitExceeded) as excinfo:
        run_on_group(cluster, program, max_events=5_000_000)
    return cluster, excinfo.value


class TestRing:
    def test_keeps_only_the_last_k(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False, flight_size=16)
        for i in range(50):
            tracer.record("test", "tick", i=i)
        assert len(tracer.flight) == 16
        snap = tracer.flight.snapshot()
        assert [r["payload"]["i"] for r in snap] == list(range(34, 50))

    def test_records_land_even_with_tracing_off(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        tracer.record("test", "tick")
        assert tracer.events == []
        assert len(tracer.flight) == 1
        assert tracer.flight.capacity == FLIGHT_RECORDER_SIZE

    def test_no_ring_and_tracing_off_keeps_nothing(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False, flight_size=0)
        for i in range(10):
            tracer.record("test", "tick", i=i)
        assert tracer.flight is None and tracer.events == []
        # Untraced and ringless, emit is a bound C discard: a deque that
        # can hold nothing.
        assert len(tracer.emit.__self__) == 0
        tracer.enabled = True
        tracer.record("test", "on")
        tracer.enabled = False
        tracer.record("test", "off")
        assert [ev.label for ev in tracer.events] == ["on"]

    def test_dump_files(self, tmp_path):
        ring = FlightRecorder(capacity=8)
        ring.append(1.5, "nic0", "send.xmit", {"key": 3})
        jsonl_path, text_path = ring.dump(tmp_path / "box")
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["label"] == "send.xmit" and rec["time"] == 1.5
        assert "send.xmit" in text_path.read_text()

    def test_dump_flight_records_roundtrips_snapshots(self, tmp_path):
        ring = FlightRecorder(capacity=4)
        for i in range(6):
            ring.append(float(i), "net", "link.deliver", {"i": i})
        jsonl_path, _ = dump_flight_records(ring.snapshot(), tmp_path / "fr")
        recs = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert [r["payload"]["i"] for r in recs] == [2, 3, 4, 5]


class TestAlarmAttachesSnapshot:
    def test_retransmit_alarm_carries_flight_records(self):
        cluster, alarm = run_doomed_barrier(doomed_config())
        records = alarm.flight_records
        assert records, "alarm carried no flight records"
        assert records[-1]["label"] == "reliability.alarm"
        # Snapshot is JSON-able as-is (it crosses process boundaries).
        json.dumps(records)
        # The retransmit attempts that led to the give-up are in the box.
        labels = [r["label"] for r in records]
        assert "barrier.send" in labels or "sdma.retransmit" in labels

    def test_on_by_default_with_tracing_off(self):
        """The black box works in the default (untraced) configuration."""
        config = doomed_config()
        assert config.trace is False
        _, alarm = run_doomed_barrier(config)
        assert alarm.flight_records


class TestCampaignIntegration:
    def _doomed_job(self):
        from repro.campaign.serialize import cluster_config_to_dict
        from repro.campaign.spec import JobSpec

        return JobSpec(
            kind="measure",
            config=cluster_config_to_dict(doomed_config()),
            params={"nic_based": True, "algorithm": "pe",
                    "repetitions": 1, "warmup": 0},
            tag="doomed",
        )

    def test_failed_job_returns_the_dump_in_its_result_record(self):
        from repro.campaign.executor import run_campaign

        result = run_campaign([self._doomed_job()], name="flight-test")
        jr = result.results[0]
        assert not jr.ok and jr.error_type == "RetransmitLimitExceeded"
        assert jr.flight, "JobResult.flight is empty"
        assert jr.flight[-1]["label"] == "reliability.alarm"

    def test_bench_artifact_carries_the_flight(self, tmp_path):
        from repro.campaign.executor import run_campaign
        from repro.campaign.store import write_bench

        result = run_campaign([self._doomed_job()], name="flight-bench")
        path = write_bench(tmp_path, result)
        bench = json.loads(path.read_text())
        job = bench["jobs"][0]
        assert job["ok"] is False
        assert job["flight"][-1]["label"] == "reliability.alarm"


#: One small combination of each soak family.
SOAK_COMBOS = {
    "loss": dict(
        family="loss", seed=3, label="nic-pe", algorithm="pe",
        reliability="SEPARATE", num_nodes=4, repetitions=1,
    ),
    "crash": dict(
        family="crash", seed=3, label="nic-pe", algorithm="pe",
        phase="mid", crash_at_us=90.0, num_nodes=4, repetitions=1,
    ),
}


@pytest.mark.parametrize("family", sorted(SOAK_COMBOS))
class TestSoakDump:
    def test_failed_soak_combo_dumps_to_disk(self, family, tmp_path):
        """A soak combo that cannot finish (tiny event budget) leaves
        its black box as files and on the exception."""
        from repro.faults.soak import run_soak_combo

        with pytest.raises(RuntimeError) as excinfo:
            run_soak_combo(
                **SOAK_COMBOS[family], max_events=200,
                flight_dump_dir=str(tmp_path),
            )
        exc = excinfo.value
        assert exc.flight_records
        dumped = sorted(tmp_path.glob("flight-*.jsonl"))
        assert len(dumped) == 1
        assert str(dumped[0]) == exc.flight_dump
        assert (tmp_path / (dumped[0].stem + ".txt")).exists()

    def test_no_files_when_disabled(self, family, tmp_path, monkeypatch):
        from repro.faults.soak import run_soak_combo

        monkeypatch.chdir(tmp_path)
        with pytest.raises(RuntimeError) as excinfo:
            run_soak_combo(
                **SOAK_COMBOS[family], max_events=200,
                flight_dump_dir=None,
            )
        assert excinfo.value.flight_records
        assert list(tmp_path.glob("flight-*")) == []


def figure5_job_tracer(monkeypatch, nic_based: bool, trace: bool = False,
                       window=None) -> Tracer:
    """The tracer after one Figure-5 job (16 nodes, LANai 4.3, PE, the
    sweep's repetitions); its cluster is closed, the tracer intact.

    ``window=(t_on, t_off)`` switches tracing on once every event at or
    before ``t_on`` has run, and off again once every event at or before
    ``t_off`` has.  Packet, token, event and trace-context ids come from
    process-global counters; they are restarted for the job, so the
    records do not depend on what ran before it in the process.
    """
    from repro.analysis import experiments, figure5
    from repro.analysis.calibration import LANAI_4_3_SYSTEM
    from repro.cluster.runner import default_group, spawn_group

    restart_id_counters(monkeypatch)
    config = LANAI_4_3_SYSTEM.cluster_config(16).with_(trace=trace)
    with build_cluster(config) as cluster:
        procs = spawn_group(
            cluster, experiments._barrier_loop_program,
            group=default_group(cluster),
            nic_based=nic_based, algorithm="pe", dimension=None,
            repetitions=figure5.BENCH_REPS + figure5.BENCH_WARMUP,
            skew_max_us=0.0, enter_times={}, exit_times={},
        )
        if window is not None:
            t_on, t_off = window
            cluster.run(until=t_on)
            cluster.tracer.enabled = True
            cluster.run(until=t_off)
            cluster.tracer.enabled = False
        cluster.run(max_events=5_000_000)
        assert not any(p.alive for p in procs)
        return cluster.tracer


def figure5_job_ring(monkeypatch, nic_based: bool, trace: bool = False) -> list:
    """:func:`figure5_job_tracer`'s flight ring, as
    ``FlightRecorder.snapshot()`` gives it."""
    return figure5_job_tracer(monkeypatch, nic_based, trace).flight.snapshot()


def ring_digest(snapshot: list) -> str:
    import hashlib

    text = json.dumps(snapshot, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class TestUntracedRingFeed:
    """With tracing off, ``Tracer.emit`` is the ring's own ``append``;
    the ring must hold exactly what the traced path puts there, and
    switching tracing mid-run must not change it."""

    #: ``ring_digest`` of the two Figure-5 jobs' rings.
    DIGESTS = {
        "nic-pe": "2dbf3cea767747e974aa23cebfefef15f9b7899825e32933e06daacdc2c8b524",
        "host-pe": "69b69a374fe267b5e094fde4e1e545426cc7b0858fec5f5a0bbd7a59c42eec1d",
    }

    @pytest.mark.parametrize("variant", ["nic-pe", "host-pe"])
    def test_untraced_ring_is_pinned(self, monkeypatch, variant):
        snapshot = figure5_job_ring(monkeypatch, nic_based=variant == "nic-pe")
        assert len(snapshot) == FLIGHT_RECORDER_SIZE
        assert ring_digest(snapshot) == self.DIGESTS[variant]

    @pytest.mark.parametrize("nic_based", [True, False], ids=["nic-pe", "host-pe"])
    def test_untraced_ring_equals_traced_ring(self, monkeypatch, nic_based):
        untraced = figure5_job_ring(monkeypatch, nic_based)
        traced = figure5_job_ring(monkeypatch, nic_based, trace=True)
        assert untraced == traced

    @pytest.mark.parametrize("nic_based", [True, False], ids=["nic-pe", "host-pe"])
    def test_tracing_switched_mid_run(self, monkeypatch, nic_based):
        """Tracing on from 300 us to 700 us only: the ring is the
        untraced run's, and ``events`` holds exactly the records a fully
        traced run makes inside that window."""
        t_on, t_off = 300.0, 700.0
        untraced = figure5_job_ring(monkeypatch, nic_based)
        full = figure5_job_tracer(monkeypatch, nic_based, trace=True)
        switched = figure5_job_tracer(monkeypatch, nic_based, window=(t_on, t_off))
        assert switched.flight.snapshot() == untraced

        def rows(tracer):
            return [json.loads(line) for line in tracer.to_jsonl().splitlines()]

        everything = rows(full)
        expected = [row for row in everything if t_on < row["time"] <= t_off]
        assert 0 < len(expected) < len(everything)
        assert rows(switched) == expected
