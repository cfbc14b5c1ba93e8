"""Executor contract tests: per-job failure containment (raising jobs
and dying workers alike), cache short-circuiting, parallel/serial
determinism and metrics/log streaming."""

import pytest

from repro.analysis.calibration import LANAI_7_2_SYSTEM
from repro.analysis.figure5 import run_figure5
from repro.campaign import (
    CampaignJobError,
    CampaignSpec,
    JobSpec,
    ResultStore,
    cluster_config_to_dict,
    run_campaign,
)
from repro.cluster.builder import ClusterConfig
from repro.faults.plan import FaultPlan, LinkFlap
from repro.gm.constants import BarrierReliability
from repro.nic.nic import NicParams


def probe(action: str = "echo", **extra) -> JobSpec:
    return JobSpec(kind="_probe", params={"action": action, **extra},
                   tag=f"probe-{action}")


def measure_job(config: ClusterConfig, **params) -> JobSpec:
    base = {
        "nic_based": True, "algorithm": "pe", "dimension": None,
        "repetitions": 2, "warmup": 0, "skew_max_us": 0.0,
        "max_events": 2_000_000,
    }
    base.update(params)
    return JobSpec(
        kind="measure", config=cluster_config_to_dict(config), params=base
    )


def hostile_config() -> ClusterConfig:
    """A 2-node cluster whose peer link is cut forever: the reliability
    stream must give up with RetransmitLimitExceeded."""
    return ClusterConfig(
        num_nodes=2,
        nic_params=NicParams(
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
            max_retransmits=6,
        ),
        fault_plan=FaultPlan(
            seed=1,
            flaps=[LinkFlap(node=1, down_at=0.0, up_at=None,
                            direction="both")],
        ),
    )


class TestFailureContainment:
    def test_raising_job_is_reported_with_traceback_siblings_complete(self):
        """The ISSUE's acceptance path: a job that trips the
        max-retransmit alarm under a hostile fault plan becomes a failed
        JobResult -- with its traceback -- while the sibling finishes."""
        sibling = measure_job(ClusterConfig(num_nodes=2))
        doomed = measure_job(hostile_config())
        result = run_campaign([doomed, sibling], name="hostile")
        assert len(result.results) == 2
        failed, ok = result.results
        assert not failed.ok
        assert failed.error_type == "RetransmitLimitExceeded"
        assert "RetransmitLimitExceeded" in failed.traceback
        assert "gave up" in failed.error
        assert ok.ok and ok.value["mean_latency_us"] > 0
        assert result.failed == 1
        with pytest.raises(CampaignJobError, match="RetransmitLimitExceeded"):
            result.raise_on_failure()

    def test_raising_job_contained_in_parallel_mode_too(self):
        result = run_campaign(
            [probe("raise", message="boom-42"), probe("echo")], jobs=2
        )
        failed, ok = result.results
        assert not failed.ok and "boom-42" in failed.error
        assert failed.error_type == "ValueError"
        assert "ValueError" in failed.traceback
        assert ok.ok

    def test_crashed_worker_surfaces_as_job_error_not_hang(self):
        """A worker that dies outright (os._exit) breaks its future; the
        executor converts that into per-job errors and returns."""
        result = run_campaign(
            [probe("crash"), probe("echo"), probe("echo")], jobs=2
        )
        assert len(result.results) == 3  # nothing lost, nothing hung
        crash = result.results[0]
        assert not crash.ok
        assert crash.error_type in ("BrokenProcessPool", "BrokenExecutor")
        assert result.failed >= 1

    def test_failed_jobs_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign([probe("raise")], store=store)
        assert len(store) == 0
        rerun = run_campaign([probe("raise")], store=store)
        assert rerun.cache_hits == 0  # failure re-executes, never caches

    def test_failed_put_leaves_no_temp_file(self, tmp_path):
        store = ResultStore(tmp_path)
        job = probe()
        with pytest.raises(TypeError):
            store.put(job, store.key_for(job), {"value": object()})
        assert list(tmp_path.iterdir()) == []

    def test_put_writes_with_a_plain_open_file_mode(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        job = probe()
        store.put(job, store.key_for(job), {"value": 1})
        (tmp_path / "plain").write_text("")
        (record,) = (tmp_path / "cache").iterdir()
        assert record.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_unknown_kind_is_a_job_error(self):
        result = run_campaign([JobSpec(kind="nonsense")])
        assert not result.results[0].ok
        assert "unknown campaign job kind" in result.results[0].error

    def test_hand_built_job_takes_harness_defaults(self):
        """A param the job leaves out takes the harness's own default."""
        from repro.analysis.experiments import measure_barrier

        config = ClusterConfig(num_nodes=2)
        job = JobSpec(kind="measure", config=cluster_config_to_dict(config),
                      params={"repetitions": 1, "warmup": 0})
        (jr,) = run_campaign([job]).results
        assert jr.ok, jr.error
        assert jr.value == measure_barrier(
            config, repetitions=1, warmup=0).to_dict()

    def test_param_the_harness_does_not_take_is_a_job_error(self):
        job = JobSpec(kind="nbc_overlap",
                      config=cluster_config_to_dict(ClusterConfig()),
                      params={"nic_based": True})
        (jr,) = run_campaign([job]).results
        assert not jr.ok and jr.error_type == "TypeError", jr.error


class TestCachingAndDeterminism:
    def test_warm_cache_executes_nothing(self, tmp_path):
        jobs = [measure_job(ClusterConfig(num_nodes=2)),
                measure_job(ClusterConfig(num_nodes=2, seed=5))]
        store = ResultStore(tmp_path)
        cold = run_campaign(jobs, store=store)
        assert cold.simulated == 2 and cold.cache_hits == 0
        warm = run_campaign(jobs, store=store)
        assert warm.cache_hits == 2 and warm.simulated == 0
        assert [r.value for r in warm.results] == [
            r.value for r in cold.results
        ]

    def test_parallel_results_bit_identical_to_serial(self, ):
        jobs = [
            measure_job(ClusterConfig(num_nodes=2)),
            measure_job(ClusterConfig(num_nodes=3), algorithm="gb",
                        dimension=1),
            measure_job(ClusterConfig(num_nodes=2), nic_based=False),
        ]
        serial = run_campaign(jobs)
        parallel = run_campaign(jobs, jobs=2)
        assert [r.value for r in serial.results] == [
            r.value for r in parallel.results
        ]
        assert [r.key for r in serial.results] == [
            r.key for r in parallel.results
        ]

    def test_key_without_store_is_the_runs_content_key(self, monkeypatch):
        spec = probe("echo")
        computed = []
        real = JobSpec.cache_key

        def counting(self, code_version):
            computed.append(code_version)
            return real(self, code_version=code_version)

        monkeypatch.setattr(JobSpec, "cache_key", counting)
        result = run_campaign([spec], code_version="v-storeless").results[0]
        assert computed == []  # a tagged, storeless run hashes nothing
        assert result.key == real(spec, code_version="v-storeless")
        assert result.key == real(spec, code_version="v-storeless")
        assert computed == ["v-storeless"]  # computed once, then kept

    def test_key_with_store_uses_the_stores_code_version(self, tmp_path):
        spec = probe("echo")
        store = ResultStore(tmp_path, code_version="v-store")
        result = run_campaign([spec], store=store).results[0]
        assert not result.cached
        assert result.key == spec.cache_key(code_version="v-store")
        assert result.key != spec.cache_key()
        assert store.path_for(result.key).exists()

    def test_cold_job_is_hashed_once(self, tmp_path, monkeypatch):
        spec = probe("echo")
        computed = []
        real = JobSpec.cache_key

        def counting(self, code_version):
            computed.append(code_version)
            return real(self, code_version=code_version)

        monkeypatch.setattr(JobSpec, "cache_key", counting)
        result = run_campaign([spec], cache_dir=tmp_path).results[0]
        assert not result.cached
        assert len(computed) == 1  # the lookup's key is the one stored
        assert (tmp_path / f"{result.key}.json").exists()
        assert len(computed) == 1

    def test_key_on_cache_hit_is_the_stored_key(self, tmp_path):
        spec = probe("echo")
        store = ResultStore(tmp_path, code_version="v-hit")
        run_campaign([spec], store=store)
        hit = run_campaign([spec], store=store).results[0]
        assert hit.cached
        assert hit.key == spec.cache_key(code_version="v-hit")
        assert store.get(hit.key)["key"] == hit.key

    def test_cache_dir_convenience_creates_store(self, tmp_path):
        cache = tmp_path / "deep" / "cache"
        run_campaign([probe("echo")], cache_dir=cache)
        assert run_campaign([probe("echo")], cache_dir=cache).cache_hits == 1

    def test_spec_input_is_compiled(self, tmp_path):
        spec = CampaignSpec(
            name="grid",
            base_config={"num_nodes": 2},
            grid={"nic_based": [False, True]},
            repetitions=1,
            warmup=0,
            max_events=1_000_000,
        )
        result = run_campaign(spec, cache_dir=tmp_path)
        assert result.name == "grid"
        assert len(result.results) == 2
        assert all(r.ok for r in result.results)


class TestObservability:
    def test_metrics_count_the_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign([probe("echo"), probe("echo")], store=store)
        result = run_campaign(
            [probe("echo"), probe("echo"), probe("raise")], store=store
        )
        snap = result.metrics.snapshot()
        assert snap["campaign.jobs"] == 3
        assert snap["campaign.cache_hits"] == 2
        assert snap["campaign.failed"] == 1
        assert "campaign.completed" not in snap or snap["campaign.completed"] == 0

    def test_per_job_progress_is_logged(self, caplog):
        with caplog.at_level("INFO", logger="repro.campaign"):
            run_campaign([probe("echo"), probe("raise")], name="logged")
        text = caplog.text
        assert "probe-echo" in text
        assert "FAILED probe-raise" in text
        assert "2 jobs" in text

    def test_bench_artifact_written(self, tmp_path):
        result = run_campaign(
            [probe("echo"), probe("raise")],
            bench_path=tmp_path, name="bench-test",
        )
        import json

        doc = json.loads((tmp_path / "BENCH_campaign.json").read_text())
        assert doc["campaign"] == "bench-test"
        assert doc["totals"] == {
            "jobs": 2, "cache_hits": 0, "simulated": 2, "failed": 1
        }
        by_tag = {j["tag"]: j for j in doc["jobs"]}
        assert by_tag["probe-raise"]["ok"] is False
        assert "ValueError" in by_tag["probe-raise"]["traceback"]
        assert result.failed == 1


class TestTelemetryOptIn:
    def test_measure_job_carries_telemetry_summary(self, tmp_path):
        """A campaign point with telemetry=True samples the run and the
        BENCH artifact grows the per-job contention digest."""
        job = measure_job(
            ClusterConfig(num_nodes=2, telemetry=True,
                          telemetry_sample_us=2.0),
            telemetry=True, repetitions=1,
        )
        job = JobSpec(kind=job.kind, config=job.config, params=job.params,
                      tag="tele-pe2")
        result = run_campaign([job], bench_path=tmp_path, name="tele")
        assert result.failed == 0
        payload = result.results[0].value
        tel = payload["telemetry"]
        assert tel["enabled"] is True
        assert tel["samples_taken"] > 0
        assert any(n.startswith("nic0.") for n in tel["series"])

        import json

        doc = json.loads((tmp_path / "BENCH_campaign.json").read_text())
        digest = doc["telemetry"]
        assert digest[0]["tag"] == "tele-pe2"
        assert digest[0]["series"] == len(tel["series"])
        assert digest[0]["busiest"]  # top mean-ranked contention series

    def test_default_measure_job_has_no_telemetry_payload(self, tmp_path):
        result = run_campaign(
            [measure_job(ClusterConfig(num_nodes=2), repetitions=1)],
            bench_path=tmp_path, name="quiet",
        )
        assert result.failed == 0
        assert result.results[0].value["telemetry"] is None

        import json

        doc = json.loads((tmp_path / "BENCH_campaign.json").read_text())
        assert "telemetry" not in doc


class TestCampaignParallel:
    def test_parallel_bit_identical_and_warm_cache_idle(self, tmp_path):
        """On the real Figure-5 sweep definition: a --jobs 2 cold run
        equals the serial one bit for bit, and a warm rerun simulates
        nothing."""
        kwargs = dict(repetitions=2, warmup=1, sizes=(2, 4))
        serial, _ = run_figure5(LANAI_7_2_SYSTEM, **kwargs)
        parallel, run_cold = run_figure5(
            LANAI_7_2_SYSTEM, jobs=2, cache_dir=tmp_path, **kwargs
        )
        assert run_cold.failed == 0
        assert run_cold.simulated == len(run_cold.results)
        for variant, by_n in serial.items():
            for n, m in by_n.items():
                p = parallel[variant][n]
                assert p.per_barrier_us == m.per_barrier_us, (variant, n)
                assert p.mean_latency_us == m.mean_latency_us
        _, run_warm = run_figure5(
            LANAI_7_2_SYSTEM, jobs=2, cache_dir=tmp_path, **kwargs
        )
        assert run_warm.simulated == 0, "warm cache must not simulate"
        assert run_warm.cache_hits == len(run_warm.results)
