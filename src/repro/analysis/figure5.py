"""The Figure-5 sweep, defined once, executed through the campaign layer.

This module is the single source of truth for the Figure 5
reproduction, shared by ``repro.analysis.report`` (the CLI) and the
session fixtures of ``tests/test_paper_claims.py``.  It builds the
sweep as a :class:`~repro.campaign.spec.CampaignSpec` (one job per
size, variant and GB dimension), runs it through
:func:`~repro.campaign.executor.run_campaign`, and reassembles the
campaign results into the ``results[variant][n]`` mapping every consumer
expects (GB reported at the best dimension per size, exactly as the
paper does).

Because each (variant, size, dimension) measurement is its own job, the
sweep parallelizes to its natural grain and every point is individually
cached by content hash -- rerunning an unchanged sweep performs zero
simulations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.calibration import SystemCalibration
from repro.analysis.experiments import BarrierMeasurement
from repro.campaign.executor import CampaignResult, run_campaign
from repro.campaign.serialize import cluster_config_to_dict
from repro.campaign.spec import CampaignSpec
from repro.cluster.builder import ClusterConfig

#: The four series of every Figure-5 panel.
VARIANTS = ("host-pe", "nic-pe", "host-gb", "nic-gb")

#: Repetitions per measurement for the paper-claims tests and the full
#: report: the paper averaged 100k noisy hardware runs; the simulator is
#: deterministic, so a handful suffices.
BENCH_REPS = 6
BENCH_WARMUP = 2

#: The --quick counterparts used by ``report.py --quick`` and CI smokes.
QUICK_REPS = 3
QUICK_WARMUP = 1


def _gb_dims(n: int, gb_dimensions: Optional[Sequence[int]]) -> List[int]:
    """Valid GB tree dimensions for an ``n``-node group (paper: sweep
    every dimension from 1 to N-1 and keep the minimum latency)."""
    dims = range(1, n) if gb_dimensions is None else gb_dimensions
    dims = [d for d in dims if 1 <= d <= n - 1]
    if not dims:
        raise ValueError(f"no valid GB dimensions for a {n}-node group")
    return dims


def sweep_points(
    sizes: Sequence[int],
    gb_dimensions: Optional[Sequence[int]] = None,
) -> List[dict]:
    """The sweep as campaign points: PE host+NIC at every size, and one
    point per GB dimension (host and NIC) wherever GB is defined."""
    points: List[dict] = []
    for n in sizes:
        points.append({"num_nodes": n, "nic_based": False, "algorithm": "pe"})
        points.append({"num_nodes": n, "nic_based": True, "algorithm": "pe"})
        if n >= 2:
            for nic_based in (False, True):
                for dim in _gb_dims(n, gb_dimensions):
                    points.append(
                        {
                            "num_nodes": n,
                            "nic_based": nic_based,
                            "algorithm": "gb",
                            "dimension": dim,
                        }
                    )
    return points


def sweep_spec(
    config: ClusterConfig,
    sizes: Sequence[int],
    *,
    name: str = "figure5",
    repetitions: int,
    warmup: int,
    gb_dimensions: Optional[Sequence[int]] = None,
    skew_max_us: float = 0.0,
) -> CampaignSpec:
    """A Figure-5 style sweep over ``sizes`` on an arbitrary config."""
    return CampaignSpec(
        name=name,
        base_config=cluster_config_to_dict(config),
        points=sweep_points(sizes, gb_dimensions),
        repetitions=repetitions,
        warmup=warmup,
        skew_max_us=skew_max_us,
    )


def figure5_spec(
    system: SystemCalibration,
    *,
    repetitions: int = BENCH_REPS,
    warmup: int = BENCH_WARMUP,
    sizes: Optional[Sequence[int]] = None,
    gb_dimensions: Optional[Sequence[int]] = None,
) -> CampaignSpec:
    """The published sweep of one calibrated testbed (sizes from the
    paper unless overridden)."""
    sizes = tuple(sizes if sizes is not None else system.sizes)
    return sweep_spec(
        system.cluster_config(max(sizes)),
        sizes,
        name=f"fig5-{system.lanai_model.name.replace(' ', '').lower()}",
        repetitions=repetitions,
        warmup=warmup,
        gb_dimensions=gb_dimensions,
    )


def assemble_sweep(
    result: CampaignResult,
    lanai_name: Optional[str] = None,
) -> Dict[str, Dict[int, BarrierMeasurement]]:
    """Reassemble campaign results into ``results[variant][n]``.

    GB entries collapse to the best (minimum mean latency) dimension per
    size, keeping the *first* minimum in job order -- dimensions compile
    in ascending order, so ties resolve exactly as the historical serial
    ``best_gb_dimension`` loop did.  With ``lanai_name`` only jobs of
    that card are considered (so one campaign can carry both testbeds).
    Raises :class:`~repro.campaign.executor.CampaignJobError` if a
    needed job failed.
    """
    sweep: Dict[str, Dict[int, BarrierMeasurement]] = {
        v: {} for v in VARIANTS
    }
    for job in result.results:
        if job.spec.kind != "measure":
            continue
        if lanai_name is not None:
            if job.spec.config["lanai_model"]["name"] != lanai_name:
                continue
        if not job.ok:
            from repro.campaign.executor import CampaignJobError

            raise CampaignJobError(job)
        params = job.spec.params
        variant = (
            f"{'nic' if params['nic_based'] else 'host'}-{params['algorithm']}"
        )
        if variant not in sweep:
            continue
        n = job.spec.config["num_nodes"]
        measurement = BarrierMeasurement.from_dict(job.value)
        best = sweep[variant].get(n)
        if best is None or measurement.mean_latency_us < best.mean_latency_us:
            sweep[variant][n] = measurement
    return sweep


def run_measure_sweep(
    config: ClusterConfig,
    sizes: Sequence[int],
    *,
    repetitions: int,
    warmup: int,
    gb_dimensions: Optional[Sequence[int]] = None,
    jobs: int = 1,
    store=None,
    cache_dir=None,
    name: str = "sweep",
) -> Tuple[Dict[str, Dict[int, BarrierMeasurement]], CampaignResult]:
    """Run a Figure-5 style sweep on ``config``; returns (sweep, run)."""
    spec = sweep_spec(
        config, sizes, name=name,
        repetitions=repetitions, warmup=warmup, gb_dimensions=gb_dimensions,
    )
    result = run_campaign(spec, jobs=jobs, store=store, cache_dir=cache_dir)
    return assemble_sweep(result), result


def run_figure5(
    system: SystemCalibration,
    *,
    repetitions: int = BENCH_REPS,
    warmup: int = BENCH_WARMUP,
    sizes: Optional[Sequence[int]] = None,
    gb_dimensions: Optional[Sequence[int]] = None,
    jobs: int = 1,
    store=None,
    cache_dir=None,
) -> Tuple[Dict[str, Dict[int, BarrierMeasurement]], CampaignResult]:
    """Run one testbed's published Figure-5 sweep; returns (sweep, run)."""
    spec = figure5_spec(
        system, repetitions=repetitions, warmup=warmup,
        sizes=sizes, gb_dimensions=gb_dimensions,
    )
    result = run_campaign(spec, jobs=jobs, store=store, cache_dir=cache_dir)
    return assemble_sweep(result), result
