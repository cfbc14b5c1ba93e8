"""Barrier latency measurement harness.

Reproduces the paper's methodology (Section 6): "we ran 100,000 barriers
consecutively and took the average latency."  A run executes ``warmup +
repetitions`` *consecutive* barriers in one simulation (so steady-state
effects -- unexpected-message records carrying over, ACK traffic from the
previous barrier -- are included, exactly as in the real measurement) and
averages the per-barrier latency over the measured repetitions.

Latency definition: barrier ``i``'s latency is ``t_exit_max(i) -
t_enter(i)`` where ``t_enter`` is the common instant all ranks initiate
(ranks are resynchronized by the previous barrier; optional random skew
models asynchronous arrival) and ``t_exit_max`` is when the *last* rank
observes completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.cluster.runner import default_group, run_on_group
from repro.core.barrier import barrier as nic_barrier_op
from repro.core.host_barrier import host_barrier as host_barrier_op
from repro.sim.primitives import Timeout

Endpoint = Tuple[int, int]

#: Default repetition counts: enough for a stable mean in a deterministic
#: simulator (the paper needed 100k on real noisy hardware).
DEFAULT_WARMUP = 3
DEFAULT_REPS = 12
#: Event cap a measurement runs under: turns a hung barrier into an error.
DEFAULT_MAX_EVENTS = 20_000_000


@dataclass
class BarrierMeasurement:
    """Result of one barrier-latency measurement."""

    num_nodes: int
    algorithm: str
    nic_based: bool
    dimension: Optional[int]
    mean_latency_us: float
    min_latency_us: float
    max_latency_us: float
    per_barrier_us: List[float] = field(repr=False, default_factory=list)
    lanai_name: str = ""
    #: Optional :meth:`repro.analysis.critical_path.CriticalPath.summary`
    #: of one traced barrier at the same config (None unless the
    #: measurement was asked for it).
    critical_path: Optional[dict] = field(repr=False, default=None)
    #: Optional :meth:`repro.telemetry.sampler.Telemetry.summary` of the
    #: measurement run itself (the sampler only reads component state,
    #: so latencies are bit-identical with or without it).
    telemetry: Optional[dict] = field(repr=False, default=None)

    @property
    def label(self) -> str:
        """Short display name, e.g. "NIC-GB dim=3"."""
        where = "NIC" if self.nic_based else "host"
        dim = f" dim={self.dimension}" if self.dimension is not None else ""
        return f"{where}-{self.algorithm.upper()}{dim}"

    def to_dict(self) -> dict:
        """A JSON-able dict (the campaign ResultStore payload schema).

        Floats survive exactly: JSON's shortest-repr rendering
        round-trips IEEE-754 doubles bit-for-bit.
        """
        return {
            "num_nodes": self.num_nodes,
            "algorithm": self.algorithm,
            "nic_based": self.nic_based,
            "dimension": self.dimension,
            "mean_latency_us": self.mean_latency_us,
            "min_latency_us": self.min_latency_us,
            "max_latency_us": self.max_latency_us,
            "per_barrier_us": list(self.per_barrier_us),
            "lanai_name": self.lanai_name,
            "critical_path": self.critical_path,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BarrierMeasurement":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def _barrier_loop_program(
    ctx,
    *,
    nic_based: bool,
    algorithm: str,
    dimension: Optional[int],
    repetitions: int,
    skew_max_us: float,
    enter_times: Dict[int, List[float]],
    exit_times: Dict[int, List[float]],
):
    """Per-rank program: run ``repetitions`` consecutive barriers."""
    rng = ctx.cluster.rng
    for rep in range(repetitions):
        if skew_max_us > 0:
            delay = rng.uniform(f"skew.{ctx.rank}.{rep}", 0.0, skew_max_us)
            if delay > 0:
                yield Timeout(delay)
        enter_times.setdefault(rep, []).append(ctx.now)
        if nic_based:
            yield from nic_barrier_op(
                ctx.port, ctx.group, ctx.rank, algorithm=algorithm, dimension=dimension
            )
        else:
            yield from host_barrier_op(
                ctx.port, ctx.group, ctx.rank, algorithm=algorithm, dimension=dimension
            )
        exit_times.setdefault(rep, []).append(ctx.now)
    return ctx.now


def measure_barrier(
    config: ClusterConfig,
    *,
    nic_based: bool = True,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
    repetitions: int = DEFAULT_REPS,
    warmup: int = DEFAULT_WARMUP,
    skew_max_us: float = 0.0,
    group: Optional[Sequence[Endpoint]] = None,
    max_events: Optional[int] = DEFAULT_MAX_EVENTS,
    critical_path: bool = False,
    telemetry: bool = False,
) -> BarrierMeasurement:
    """Measure the average latency of consecutive barriers on a fresh
    cluster built from ``config``.

    With ``critical_path`` (NIC barriers only), one additional traced
    barrier runs on a fresh cluster at the same config and its
    happens-before critical path is attached to the measurement as a
    JSON-able summary (see :mod:`repro.analysis.critical_path`).  The
    measurement itself is untouched: the extra run is a separate
    simulation, so the reported latencies stay bit-identical to a
    ``critical_path=False`` call.

    With ``telemetry``, the measurement cluster itself samples
    component time series (see :mod:`repro.telemetry`) and the digest
    lands on ``BarrierMeasurement.telemetry``.  The sampler is a pure
    reader scheduled at low priority, so the reported latencies are
    bit-identical to a ``telemetry=False`` run (asserted by
    ``tests/test_telemetry.py``).
    """
    if telemetry and not config.telemetry:
        config = config.with_(telemetry=True)
    with build_cluster(config) as cluster:
        if group is None:
            group = default_group(cluster)
        enter_times: Dict[int, List[float]] = {}
        exit_times: Dict[int, List[float]] = {}
        total = warmup + repetitions
        run_on_group(
            cluster,
            _barrier_loop_program,
            group=group,
            max_events=max_events,
            nic_based=nic_based,
            algorithm=algorithm,
            dimension=dimension,
            repetitions=total,
            skew_max_us=skew_max_us,
            enter_times=enter_times,
            exit_times=exit_times,
        )
        tel_summary: Optional[dict] = None
        if cluster.telemetry.enabled:
            tel_summary = cluster.telemetry.summary()
    per_barrier = []
    for rep in range(warmup, total):
        start = max(enter_times[rep])
        end = max(exit_times[rep])
        per_barrier.append(end - start)
    cp_summary: Optional[dict] = None
    if critical_path and nic_based:
        from repro.analysis.critical_path import traced_barrier_run

        _, path, _ = traced_barrier_run(
            len(group),
            algorithm=algorithm,
            dimension=dimension,
            config=config,
            max_events=max_events,
        )
        cp_summary = path.summary()
    return BarrierMeasurement(
        num_nodes=len(group),
        algorithm=algorithm,
        nic_based=nic_based,
        dimension=dimension,
        mean_latency_us=sum(per_barrier) / len(per_barrier),
        min_latency_us=min(per_barrier),
        max_latency_us=max(per_barrier),
        per_barrier_us=per_barrier,
        lanai_name=config.lanai_model.name,
        critical_path=cp_summary,
        telemetry=tel_summary,
    )


def best_gb_dimension(
    config: ClusterConfig,
    *,
    nic_based: bool,
    repetitions: int = DEFAULT_REPS,
    warmup: int = DEFAULT_WARMUP,
    group: Optional[Sequence[Endpoint]] = None,
    dimensions: Optional[Sequence[int]] = None,
) -> BarrierMeasurement:
    """GB latency minimized over tree dimension.

    The paper: "we ran the test for every dimension from 1 to N-1 ...  The
    latencies reported in the graphs are the minimum latencies over all
    dimensions."
    """
    n = config.num_nodes if group is None else len(group)
    if n < 2:
        raise ValueError("GB dimension sweep needs at least 2 nodes")
    if dimensions is None:
        dimensions = range(1, n)
    dimensions = [d for d in dimensions if 1 <= d <= n - 1]
    if not dimensions:
        raise ValueError(f"no valid GB dimensions for a {n}-node group")
    best: Optional[BarrierMeasurement] = None
    for dim in dimensions:
        m = measure_barrier(
            config,
            nic_based=nic_based,
            algorithm="gb",
            dimension=dim,
            repetitions=repetitions,
            warmup=warmup,
            group=group,
        )
        if best is None or m.mean_latency_us < best.mean_latency_us:
            best = m
    assert best is not None
    return best

