"""The campaign executor: run many independent simulations, fast.

``run_campaign`` takes a :class:`~repro.campaign.spec.CampaignSpec` (or
an explicit list of :class:`~repro.campaign.spec.JobSpec`) and executes
every job that misses the :class:`~repro.campaign.store.ResultStore`,
serially (``jobs=1``) or on a ``concurrent.futures`` process pool
(``jobs=N``; the pool machinery is imported only when a run starts
one).  Results come back in submission order regardless of completion
order, so the parallel path is bit-identical to the serial one: each job
is a self-contained simulation whose outcome depends only on its spec.

Failure containment: the worker entry point catches everything a job
raises and returns the error + traceback as data, so one hostile fault
plan (say, a :class:`~repro.nic.nic.RetransmitLimitExceeded` alarm)
becomes a failed :class:`JobResult` while sibling jobs complete.  A
worker that dies outright (segfault, ``os._exit``) surfaces as
``BrokenProcessPool`` on its future; worker death is an infrastructure
fault rather than a property of the job, so the executor re-runs such
jobs on a fresh pool up to ``max_retries`` times before recording the
failure -- and never a hung pool either way.  ``campaign.worker_deaths``
counts broken pools (one per death, whichever jobs were pending when it
broke); ``campaign.retries`` counts the per-job re-runs, which include
siblings that happened to be uncollected at the break.

Progress streams through the PR-1 observability machinery: a
:class:`~repro.sim.metrics.MetricsRegistry` counts submissions, cache
hits, completions and failures, and the ``repro.campaign`` logger emits
one line per job.
"""

from __future__ import annotations

import logging
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.campaign.serialize import CODE_VERSION
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore, write_bench
from repro.sim.metrics import MetricsRegistry

logger = logging.getLogger("repro.campaign")


class CampaignJobError(RuntimeError):
    """A campaign job failed and the caller asked for exceptions.

    Carries the failed job's tag, the original error string and its
    full traceback text (the original exception object lived in a worker
    process and cannot always be rebuilt here).
    """

    def __init__(self, result: "JobResult") -> None:
        flight = ""
        if result.flight:
            flight = (
                f"\n(flight recorder: {len(result.flight)} records on "
                f"JobResult.flight)"
            )
        super().__init__(
            f"campaign job {result.spec.tag or result.key} failed: "
            f"{result.error}\n{result.traceback or ''}{flight}"
        )
        self.job = result


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _execute_job_payload(job: dict) -> dict:
    """Execute one serialized job; always returns a payload dict.

    Module-level so it pickles under every multiprocessing start method.
    Imports are lazy both to keep worker startup light and to avoid
    import cycles (the soak harness itself submits through this module).
    """
    start = time.perf_counter()
    try:
        kind = job["kind"]
        params = job.get("params", {})
        if kind == "measure":
            from repro.analysis.experiments import measure_barrier
            from repro.campaign.serialize import cluster_config_from_dict

            config = cluster_config_from_dict(job["config"])
            measurement = measure_barrier(
                config,
                nic_based=params["nic_based"],
                algorithm=params.get("algorithm", "pe"),
                dimension=params.get("dimension"),
                repetitions=params.get("repetitions", 12),
                warmup=params.get("warmup", 3),
                skew_max_us=params.get("skew_max_us", 0.0),
                max_events=params.get("max_events"),
                critical_path=params.get("critical_path", False),
                telemetry=params.get("telemetry", False),
            )
            value = measurement.to_dict()
        elif kind == "nbc_overlap":
            from repro.analysis.nbc_overlap import measure_nbc_overlap
            from repro.campaign.serialize import cluster_config_from_dict

            config = cluster_config_from_dict(job["config"])
            value = measure_nbc_overlap(
                config,
                iterations=params.get("iterations", 10),
                compute_us=params.get("compute_us", 60.0),
                chunk_us=params.get("chunk_us", 5.0),
                skew_max_us=params.get("skew_max_us", 0.0),
                max_events=params.get("max_events"),
            ).to_dict()
        elif kind == "soak":
            from repro.faults.soak import run_soak_combo

            value = run_soak_combo(**params).row.to_dict()
        elif kind == "_probe":
            # Test hook: lets the executor's failure paths be exercised
            # without a real simulation.  "crash" kills the worker
            # process outright (the BrokenProcessPool path).
            action = params.get("action", "echo")
            if action == "crash":
                import os

                os._exit(13)
            if action == "crash_once":
                # Die only while the marker file is absent: models a
                # transient worker death (the retry-path test hook).
                import os

                marker = params["marker"]
                if not os.path.exists(marker):
                    with open(marker, "w") as fh:
                        fh.write("crashed\n")
                    os._exit(13)
            if action == "raise":
                raise ValueError(params.get("message", "probe failure"))
            value = dict(params)
        else:
            raise ValueError(f"unknown campaign job kind {kind!r}")
        return {
            "ok": True,
            "value": value,
            "elapsed_s": time.perf_counter() - start,
        }
    except Exception as exc:
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": type(exc).__name__,
            "traceback": traceback_module.format_exc(),
            # The flight recorder's last-K-records snapshot, when the
            # failure carried one (NIC alarms and Cluster.run attach it):
            # plain dicts, so it survives pickling back from a worker.
            "flight": getattr(exc, "flight_records", None),
            "elapsed_s": time.perf_counter() - start,
        }


def _retry_broken_job(
    name: str,
    spec: "JobSpec",
    first_error: str,
    max_retries: int,
    registry: MetricsRegistry,
    code_version: str,
) -> dict:
    """Re-run a job whose worker died, up to ``max_retries`` times.

    Each attempt gets its own single-worker pool -- the original pool is
    poisoned, and an isolated worker keeps a repeatedly-crashing job
    from taking sibling retries down with it.  Returns the payload of
    the first surviving attempt, or a failure payload quoting the first
    death when every attempt dies too.
    """
    from concurrent.futures.process import (
        BrokenProcessPool,
        ProcessPoolExecutor,
    )

    error = first_error
    for attempt in range(1, max_retries + 1):
        registry.counter("campaign.retries").inc()
        logger.warning(
            "[%s] worker died on %s (%s); retry %d/%d on a fresh pool",
            name, spec.tag or spec.cache_key(code_version=code_version)[:12],
            error, attempt, max_retries,
        )
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                return pool.submit(
                    _execute_job_payload, spec.to_dict()
                ).result()
            except BrokenProcessPool as exc:
                registry.counter("campaign.worker_deaths").inc()
                error = f"{type(exc).__name__}: {exc}"
    return {
        "ok": False,
        "error": (
            f"worker died and {max_retries} retr"
            f"{'y' if max_retries == 1 else 'ies'} died too: {error}"
            if max_retries
            else f"worker died (retries disabled): {error}"
        ),
        "error_type": "BrokenProcessPool",
        "traceback": None,
    }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class JobResult:
    """Outcome of one job: a value (fresh or cached) or an error."""

    spec: JobSpec
    ok: bool
    cached: bool = False
    value: Optional[dict] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    #: Flight-recorder snapshot a failed job shipped back (last K trace
    #: records before the crash; see :mod:`repro.sim.tracing`).
    flight: Optional[list] = None
    elapsed_s: float = 0.0
    #: Code version the job's cache key is computed under: the store's
    #: when the run had one, else ``run_campaign``'s ``code_version``.
    code_version: str = CODE_VERSION
    _key: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        """The job's content-addressed cache key.

        A run with a store passes in the key it looked up; otherwise the
        key is computed here on first read and kept, so a storeless run
        that never reads it hashes nothing.
        """
        if self._key is None:
            self._key = self.spec.cache_key(code_version=self.code_version)
        return self._key


@dataclass
class CampaignResult:
    """Everything one ``run_campaign`` call produced."""

    name: str
    results: List[JobResult] = field(default_factory=list)
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(sim=None, enabled=True)
    )
    elapsed_s: float = 0.0
    code_version: str = CODE_VERSION

    @property
    def cache_hits(self) -> int:
        """Jobs answered from the result store."""
        return sum(1 for r in self.results if r.cached)

    @property
    def simulated(self) -> int:
        """Jobs that actually executed (hit or raised) this run."""
        return sum(1 for r in self.results if not r.cached)

    @property
    def failed(self) -> int:
        """Jobs that ended in an error."""
        return sum(1 for r in self.results if not r.ok)

    def raise_on_failure(self) -> "CampaignResult":
        """Raise :class:`CampaignJobError` for the first failed job."""
        for r in self.results:
            if not r.ok:
                raise CampaignJobError(r)
        return self


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def run_campaign(
    work: Union[CampaignSpec, JobSpec, Sequence[JobSpec]],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    cache_dir=None,
    name: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    bench_path=None,
    code_version: str = CODE_VERSION,
    max_retries: Optional[int] = None,
) -> CampaignResult:
    """Execute a campaign; see the module docstring for the contract.

    Parameters
    ----------
    work:
        A :class:`CampaignSpec` (compiled here), one :class:`JobSpec`,
        or a sequence of them.
    jobs:
        Worker processes.  ``1`` runs everything inline in this process
        (no pool, no pickling) -- the reference serial path the parallel
        one must match bit-for-bit.
    store / cache_dir:
        An explicit :class:`ResultStore`, or a directory to open one in.
        Without either, nothing is cached.
    metrics:
        An existing registry to count into (one is created otherwise).
    bench_path:
        File or directory to write the consolidated
        ``BENCH_campaign.json`` artifact into.
    max_retries:
        Re-runs (on a fresh pool) granted to jobs whose worker process
        died.  Defaults to the :class:`CampaignSpec`'s ``max_retries``
        when one is given, else 1.
    """
    started = time.perf_counter()
    if isinstance(work, CampaignSpec):
        specs = work.compile()
        name = name or work.name
        if max_retries is None:
            max_retries = work.max_retries
    elif isinstance(work, JobSpec):
        specs = [work]
    else:
        specs = list(work)
    name = name or "campaign"
    if max_retries is None:
        max_retries = 1
    if store is None and cache_dir is not None:
        store = ResultStore(cache_dir, code_version=code_version)
    registry = metrics if metrics is not None else MetricsRegistry(
        sim=None, enabled=True
    )
    registry.counter("campaign.jobs").inc(len(specs))

    # The key is the store's lookup; without a store it is computed only
    # if someone reads JobResult.key (never on a tagged, storeless run).
    version = store.code_version if store is not None else code_version
    results: List[Optional[JobResult]] = [None] * len(specs)
    pending: List[tuple] = []  # (index, spec, key or None)
    for index, spec in enumerate(specs):
        key = store.key_for(spec) if store is not None else None
        record = store.get(key) if store is not None else None
        if record is not None:
            registry.counter("campaign.cache_hits").inc()
            logger.info("[%s] cache hit %s", name, spec.tag or key[:12])
            results[index] = JobResult(
                spec=spec, ok=True, cached=True, value=record["result"],
                code_version=version, _key=key,
            )
        else:
            pending.append((index, spec, key))

    def finish(
        index: int, spec: JobSpec, key: Optional[str], payload: dict
    ) -> None:
        ok = payload.get("ok", False)
        result = JobResult(
            spec=spec,
            ok=ok,
            cached=False,
            value=payload.get("value"),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            traceback=payload.get("traceback"),
            flight=payload.get("flight"),
            elapsed_s=payload.get("elapsed_s", 0.0),
            code_version=version,
            _key=key,
        )
        results[index] = result
        if ok:
            registry.counter("campaign.completed").inc()
            if store is not None:
                store.put(spec, key, result.value)
            logger.info(
                "[%s] done %s (%.2fs)", name, spec.tag or result.key[:12],
                result.elapsed_s,
            )
        else:
            registry.counter("campaign.failed").inc()
            logger.warning(
                "[%s] FAILED %s: %s", name, spec.tag or result.key[:12],
                result.error,
            )

    if pending:
        workers = max(1, min(jobs, len(pending)))
        if workers == 1:
            for index, spec, key in pending:
                # In process the payload needs no copy: the job only
                # reads it.  Only the pool pickles ``to_dict()``.
                job = {"kind": spec.kind, "config": spec.config,
                       "params": spec.params, "tag": spec.tag}
                finish(index, spec, key, _execute_job_payload(job))
        else:
            from concurrent.futures import Future
            from concurrent.futures.process import (
                BrokenProcessPool,
                ProcessPoolExecutor,
            )

            def submit(pool, spec: JobSpec) -> Future:
                # A worker can die while later jobs are still being
                # submitted; those jobs then fail like its siblings.
                try:
                    return pool.submit(_execute_job_payload, spec.to_dict())
                except BrokenProcessPool as exc:
                    future = Future()
                    future.set_exception(exc)
                    return future

            broken: List[tuple] = []  # (index, spec, key, error text)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (index, spec, key, submit(pool, spec))
                    for index, spec, key in pending
                ]
                for index, spec, key, future in futures:
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        # The worker process died outright (segfault,
                        # OOM kill, os._exit).  One death poisons the
                        # whole pool, so every not-yet-collected sibling
                        # lands here too; all of them get retried on
                        # fresh pools below.
                        broken.append(
                            (index, spec, key, f"{type(exc).__name__}: {exc}")
                        )
                        continue
                    except Exception as exc:
                        # The payload failed to unpickle (or similar):
                        # a per-job error, not a hung campaign.
                        payload = {
                            "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                            "error_type": type(exc).__name__,
                            "traceback": traceback_module.format_exc(),
                        }
                    finish(index, spec, key, payload)
            if broken:
                registry.counter("campaign.worker_deaths").inc()
            for index, spec, key, first_error in broken:
                finish(
                    index, spec, key,
                    _retry_broken_job(
                        name, spec, first_error, max_retries, registry,
                        version,
                    ),
                )

    final: List[JobResult] = [r for r in results if r is not None]
    assert len(final) == len(specs), "executor lost a job result"
    outcome = CampaignResult(
        name=name,
        results=final,
        metrics=registry,
        elapsed_s=time.perf_counter() - started,
        code_version=code_version,
    )
    logger.info(
        "[%s] %d jobs: %d cached, %d simulated, %d failed (%.2fs)",
        name, len(final), outcome.cache_hits, outcome.simulated,
        outcome.failed, outcome.elapsed_s,
    )
    if bench_path is not None:
        write_bench(bench_path, outcome)
    return outcome
