"""Communication/computation overlap measurement for Ibarrier.

The blocking barrier serializes a superstep: ``compute, then wait for
the barrier``.  The non-blocking schedule engine lets the host start the
barrier *first* and compute while the schedule progresses -- the fuzzy
barrier of the paper's Section 1, but built on the compiled-schedule
machinery of :mod:`repro.mpi.nbc` instead of the NIC barrier engine, so
it also applies to Ibcast/Iallreduce shapes.

Methodology (one measurement = three fresh simulations of the same
cluster config, so the comparison is apples-to-apples on identical
seeded skew):

* **blocking** -- per iteration: compute ``compute_us``, then
  ``ibarrier(); wait()`` immediately.  Zero overlap by construction;
  this is the baseline the acceptance gate compares against.
* **overlapped** -- per iteration: ``ibarrier()`` first, then compute in
  ``chunk_us`` chunks with a cheap ``request.test()`` poll between
  chunks, then ``wait()``.
* **pure** -- per iteration: ``ibarrier(); wait()`` with no compute at
  all: the pure communication latency that overlap could at best hide.

The headline number is ``overlap_pct``: the fraction of the pure
communication latency hidden behind compute, ``(blocking - overlapped) /
pure * 100`` per iteration.  The blocking baseline's overlap is 0% by
definition, so any strictly positive ``overlap_pct`` demonstrates real
communication/computation overlap.

A ``skew_max_us`` dimension staggers iteration entry per rank with the
cluster's seeded RNG (same draws in all three modes), probing whether
overlap survives load imbalance -- late arrivals eat into the window in
which early ranks can hide communication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.experiments import DEFAULT_MAX_EVENTS
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import default_group, run_on_group
from repro.fileio import atomic_write_text
from repro.mpi.communicator import Communicator, MpiParams
from repro.sim.primitives import Timeout

#: Defaults mirroring examples/fuzzy_barrier_overlap.py, now measured.
DEFAULT_ITERATIONS = 10
DEFAULT_COMPUTE_US = 60.0
DEFAULT_CHUNK_US = 5.0


@dataclass
class OverlapMeasurement:
    """Result of one Ibarrier-overlap measurement (JSON-able)."""

    num_nodes: int
    iterations: int
    compute_us: float
    chunk_us: float
    skew_max_us: float
    #: Total runtime (max over ranks) per mode, microseconds.
    blocking_total_us: float
    overlapped_total_us: float
    pure_total_us: float
    #: Fraction of the pure communication latency hidden by overlap
    #: (blocking baseline is 0 by construction).
    overlap_pct: float
    #: Saved wall time per iteration, microseconds.
    saved_us_per_iter: float
    lanai_name: str = ""
    #: Rank-0 schedule-cache counters from the overlapped run.
    cache: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-able dict (the campaign ResultStore payload schema)."""
        return {
            "num_nodes": self.num_nodes,
            "iterations": self.iterations,
            "compute_us": self.compute_us,
            "chunk_us": self.chunk_us,
            "skew_max_us": self.skew_max_us,
            "blocking_total_us": self.blocking_total_us,
            "overlapped_total_us": self.overlapped_total_us,
            "pure_total_us": self.pure_total_us,
            "overlap_pct": self.overlap_pct,
            "saved_us_per_iter": self.saved_us_per_iter,
            "lanai_name": self.lanai_name,
            "cache": dict(self.cache),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OverlapMeasurement":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def _skew(ctx, rep: int, skew_max_us: float):
    """Per-rank, per-iteration seeded entry skew (host generator)."""
    if skew_max_us > 0:
        delay = ctx.cluster.rng.uniform(
            f"nbc_skew.{ctx.rank}.{rep}", 0.0, skew_max_us
        )
        if delay > 0:
            yield Timeout(delay)


def _blocking_program(ctx, *, iterations, compute_us, skew_max_us, params):
    """Compute, then synchronize: the zero-overlap baseline."""
    comm = Communicator(ctx.port, ctx.group, ctx.rank, params=params)
    for rep in range(iterations):
        yield from _skew(ctx, rep, skew_max_us)
        if compute_us > 0:
            yield from ctx.node.compute(compute_us)
        request = yield from comm.ibarrier()
        yield from request.wait()
    return ctx.now, comm.nbc.cache.stats.as_dict()


def _overlapped_program(ctx, *, iterations, compute_us, chunk_us,
                        skew_max_us, params):
    """Start the barrier first, compute while the schedule progresses."""
    comm = Communicator(ctx.port, ctx.group, ctx.rank, params=params)
    for rep in range(iterations):
        yield from _skew(ctx, rep, skew_max_us)
        request = yield from comm.ibarrier()
        remaining = compute_us
        while remaining > 0:
            chunk = min(chunk_us, remaining)
            yield from ctx.node.compute(chunk)
            remaining -= chunk
            yield from request.test()
        yield from request.wait()
    return ctx.now, comm.nbc.cache.stats.as_dict()


def _pure_program(ctx, *, iterations, skew_max_us, params):
    """Ibarrier alone: the communication latency overlap could hide."""
    result = yield from _blocking_program(
        ctx, iterations=iterations, compute_us=0.0,
        skew_max_us=skew_max_us, params=params,
    )
    return result


def measure_nbc_overlap(
    config: ClusterConfig,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    compute_us: float = DEFAULT_COMPUTE_US,
    chunk_us: float = DEFAULT_CHUNK_US,
    skew_max_us: float = 0.0,
    params: Optional[MpiParams] = None,
    max_events: Optional[int] = DEFAULT_MAX_EVENTS,
) -> OverlapMeasurement:
    """Measure Ibarrier overlap on fresh clusters built from ``config``.

    Three simulations (blocking / overlapped / pure), identical configs
    and identical seeded skew draws; returns an
    :class:`OverlapMeasurement` with the achieved ``overlap_pct``.
    """

    def run(program, **kwargs):
        with build_cluster(config) as cluster:
            results = run_on_group(
                cluster, program, group=default_group(cluster),
                max_events=max_events, iterations=iterations,
                skew_max_us=skew_max_us, params=params, **kwargs,
            )
        return (
            max(now for now, _ in results),
            results[0][1],
        )

    blocking_total, _ = run(
        _blocking_program, compute_us=compute_us,
    )
    overlapped_total, cache = run(
        _overlapped_program, compute_us=compute_us, chunk_us=chunk_us,
    )
    pure_total, _ = run(_pure_program)

    saved_per_iter = (blocking_total - overlapped_total) / iterations
    pure_per_iter = pure_total / iterations
    overlap_pct = 100.0 * saved_per_iter / pure_per_iter if pure_per_iter else 0.0
    return OverlapMeasurement(
        num_nodes=config.num_nodes,
        iterations=iterations,
        compute_us=compute_us,
        chunk_us=chunk_us,
        skew_max_us=skew_max_us,
        blocking_total_us=blocking_total,
        overlapped_total_us=overlapped_total,
        pure_total_us=pure_total,
        overlap_pct=overlap_pct,
        saved_us_per_iter=saved_per_iter,
        lanai_name=config.lanai_model.name,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# the sweep, through the cached campaign layer (like Figure 5)
# ---------------------------------------------------------------------------
#: Default sweep axes: compute interval vs. entry skew.
DEFAULT_COMPUTE_GRID = (20.0, 60.0, 120.0)
DEFAULT_SKEW_GRID = (0.0, 50.0)


def overlap_sweep_spec(
    config: ClusterConfig,
    *,
    compute_grid: Sequence[float] = DEFAULT_COMPUTE_GRID,
    skew_grid: Sequence[float] = DEFAULT_SKEW_GRID,
    iterations: int = DEFAULT_ITERATIONS,
    chunk_us: float = DEFAULT_CHUNK_US,
    name: str = "nbc-overlap",
):
    """The overlap sweep as an ``nbc_overlap``-kind campaign spec.

    Each (compute interval, skew) cell is one job, so the sweep
    parallelizes and content-caches through the campaign layer exactly
    like the Figure-5 sweeps do.
    """
    from repro.campaign.serialize import cluster_config_to_dict
    from repro.campaign.spec import CampaignSpec

    points = [
        {
            "compute_us": compute,
            "skew_max_us": skew,
            "chunk_us": chunk_us,
            "iterations": iterations,
        }
        for compute in compute_grid
        for skew in skew_grid
    ]
    return CampaignSpec(
        name=name,
        kind="nbc_overlap",
        base_config=cluster_config_to_dict(config),
        points=points,
        repetitions=iterations,
    )


def run_nbc_sweep(
    config: ClusterConfig,
    *,
    compute_grid: Sequence[float] = DEFAULT_COMPUTE_GRID,
    skew_grid: Sequence[float] = DEFAULT_SKEW_GRID,
    iterations: int = DEFAULT_ITERATIONS,
    chunk_us: float = DEFAULT_CHUNK_US,
    jobs: int = 1,
    store=None,
    cache_dir=None,
    name: str = "nbc-overlap",
) -> Tuple[List[OverlapMeasurement], "object"]:
    """Run the overlap sweep through the campaign layer.

    Returns ``(measurements, campaign_result)`` with measurements in
    job (grid) order.  Raises
    :class:`~repro.campaign.executor.CampaignJobError` on any failed
    job.
    """
    from repro.campaign.executor import run_campaign

    spec = overlap_sweep_spec(
        config, compute_grid=compute_grid, skew_grid=skew_grid,
        iterations=iterations, chunk_us=chunk_us, name=name,
    )
    result = run_campaign(spec, jobs=jobs, store=store, cache_dir=cache_dir)
    jobs = result.raise_on_failure().results
    return [OverlapMeasurement.from_dict(j.value) for j in jobs], result


def write_nbc_bench(path, measurements: Sequence[OverlapMeasurement],
                    result=None) -> Path:
    """Write the ``BENCH_nbc.json`` artifact.

    One row per sweep cell (compute interval x skew) with the achieved
    overlap percentage, the blocking baseline's overlap (0 by
    construction, recorded explicitly so the acceptance comparison is
    in the artifact itself) and the schedule-cache counters; plus
    campaign totals when the sweep ran through the campaign layer.
    """
    rows = [
        {
            **m.to_dict(),
            #: The baseline this row's overlap_pct must strictly beat.
            "blocking_overlap_pct": 0.0,
        }
        for m in measurements
    ]
    doc = {
        "benchmark": "nbc_overlap",
        "rows": rows,
        "min_overlap_pct": min((r["overlap_pct"] for r in rows), default=0.0),
        "max_overlap_pct": max((r["overlap_pct"] for r in rows), default=0.0),
    }
    if result is not None:
        doc["campaign"] = {
            "jobs": len(result.results),
            "cache_hits": result.cache_hits,
            "simulated": result.simulated,
        }
    return atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")
