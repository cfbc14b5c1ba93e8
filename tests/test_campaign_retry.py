"""Retry-on-worker-death contract: a transiently dying worker is re-run
on a fresh pool, a deterministically dying one still fails after
exhausting its retries, and ``max_retries=0`` restores the old
fail-immediately behavior.

``campaign.worker_deaths`` (one per broken pool) does not depend on
timing and is asserted exactly.  ``campaign.retries`` counts per-job
re-runs, and a sibling still pending at the pool break is re-run too,
so it is bounded, not pinned."""

from repro.campaign import CampaignSpec, JobSpec, run_campaign


def probe(action: str = "echo", **extra) -> JobSpec:
    return JobSpec(kind="_probe", params={"action": action, **extra},
                   tag=f"probe-{action}")


class TestRetryOnWorkerDeath:
    def test_transient_death_is_retried_and_succeeds(self, tmp_path):
        """A worker that dies once (marker-file probe) is re-run on a
        fresh pool and the job completes; nothing counts as failed."""
        marker = tmp_path / "died-once"
        result = run_campaign(
            [probe("crash_once", marker=str(marker)), probe("echo")],
            jobs=2,
        )
        assert marker.exists()  # the first attempt really died
        assert result.failed == 0
        assert all(r.ok for r in result.results)
        snap = result.metrics.snapshot()
        assert snap["campaign.worker_deaths"] == 1
        # The crasher's retry, plus the echo sibling's if it was still
        # pending when the pool broke.
        assert 1 <= snap["campaign.retries"] <= 2

    def test_poisoned_siblings_recover_too(self, tmp_path):
        """One death poisons the whole pool: sibling futures that were
        never collected raise BrokenProcessPool as well and must be
        retried rather than reported failed."""
        marker = tmp_path / "died-once"
        jobs = [probe("crash_once", marker=str(marker))] + [
            probe("echo") for _ in range(3)
        ]
        result = run_campaign(jobs, jobs=2)
        assert result.failed == 0
        assert all(r.ok for r in result.results)
        assert result.metrics.snapshot()["campaign.worker_deaths"] == 1

    def test_deterministic_death_exhausts_retries(self):
        result = run_campaign([probe("crash"), probe("echo")], jobs=2)
        crash = result.results[0]
        assert not crash.ok
        assert crash.error_type == "BrokenProcessPool"
        assert "died too" in crash.error
        snap = result.metrics.snapshot()
        # The first pool and the crasher's retry pool both break.
        assert snap["campaign.worker_deaths"] == 2
        # At least the crasher's retry fired; the poisoned echo sibling
        # may add one more depending on collection timing.
        assert snap["campaign.retries"] >= 1
        assert result.results[1].ok  # the sibling always recovers

    def test_retries_disabled_fails_immediately(self):
        result = run_campaign(
            [probe("crash"), probe("echo")], jobs=2, max_retries=0
        )
        crash = result.results[0]
        assert not crash.ok
        assert "retries disabled" in crash.error
        snap = result.metrics.snapshot()
        assert snap["campaign.worker_deaths"] == 1
        assert snap.get("campaign.retries", 0) == 0

    def test_spec_round_trips_max_retries(self):
        spec = CampaignSpec(name="r", max_retries=3)
        assert spec.to_dict()["max_retries"] == 3
        assert CampaignSpec.from_dict(spec.to_dict()).max_retries == 3
        assert CampaignSpec().max_retries == 1  # default: one retry

    def test_death_during_submission_is_retried(self, monkeypatch):
        """A worker that dies while later jobs are still being submitted
        breaks the pool under ``submit()`` itself; that job is retried
        like any poisoned sibling instead of escaping run_campaign."""
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(pool, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died during submission")
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        result = run_campaign([probe("echo"), probe("echo")], jobs=2)
        assert all(r.ok for r in result.results)
        snap = result.metrics.snapshot()
        assert snap["campaign.worker_deaths"] == 1
        assert snap["campaign.retries"] == 1
        assert len(calls) == 3  # two submissions, one retry
