"""Parallel experiment campaigns with content-addressed result caching.

Every figure reproduction, ablation and chaos soak in this repo is a set
of *independent* single-process simulations.  This package owns "run
many simulations": a declarative :class:`CampaignSpec` compiles a sweep
into :class:`JobSpec` jobs, :func:`run_campaign` executes them inline or
on a process pool, and a :class:`ResultStore` caches each job's result
under a content hash of its fully-resolved config (plus a code-version
salt), so an unchanged config is never simulated twice.

Guarantees (see ``docs/campaigns.md``):

* **Determinism** -- parallel results are bit-identical to serial ones;
  each job is a self-contained simulation seeded entirely by its spec.
* **Failure containment** -- a job that raises (or whose worker dies)
  becomes a failed :class:`JobResult` with its traceback; siblings run
  to completion.
* **Observability** -- per-job progress and cache hits stream through a
  :class:`~repro.sim.metrics.MetricsRegistry` and the
  ``repro.campaign`` logger, and :func:`write_bench` consolidates a run
  into a machine-readable ``BENCH_campaign.json``.

Usage::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="pe-sweep",
        base_config={"num_nodes": 8},
        grid={"num_nodes": [2, 4, 8], "nic_based": [False, True]},
        repetitions=6,
    )
    result = run_campaign(spec, jobs=4, cache_dir=".campaign-cache")
    latencies = [r.value["mean_latency_us"] for r in result.results if r.ok]
"""

from repro.campaign.executor import (
    CampaignJobError,
    CampaignResult,
    JobResult,
    run_campaign,
)
from repro.campaign.serialize import (
    CODE_VERSION,
    canonical_json,
    cluster_config_from_dict,
    cluster_config_to_dict,
    content_key,
)
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import BENCH_ARTIFACT, ResultStore, write_bench

__all__ = [
    "BENCH_ARTIFACT",
    "CODE_VERSION",
    "CampaignJobError",
    "CampaignResult",
    "CampaignSpec",
    "JobResult",
    "JobSpec",
    "ResultStore",
    "canonical_json",
    "cluster_config_from_dict",
    "cluster_config_to_dict",
    "content_key",
    "run_campaign",
    "write_bench",
]
