"""Declarative campaign specs and the jobs they compile to.

A :class:`CampaignSpec` is pure data: a base cluster config plus a
grid and/or explicit list of sweep points, with shared measurement
parameters (repetitions, warmup, skew, fault seed).  ``compile()`` turns
it into a flat list of :class:`JobSpec` -- one fully-resolved,
independently executable simulation each -- which the executor runs in
any order, in any process, with bit-identical results.

Point semantics: :data:`KINDS` declares each job kind a spec compiles
to -- its harness, the point keys routed to that harness, and its tag
label.  A point's harness keys become the job's params (for
``"measure"``: ``nic_based``, ``algorithm``, ``dimension``,
``repetitions``, ``warmup``, ``skew_max_us``, ``max_events``,
``critical_path``, ``telemetry``); a harness key the point leaves out
takes the :class:`CampaignSpec` field of its name (``iterations`` takes
``repetitions``), else the harness's own keyword default.  Every other
key must name a :class:`~repro.cluster.builder.ClusterConfig` field
(``num_nodes``, ``seed``, ``nic_params``, ...) and overrides the base
config.  Grid axes expand by cartesian product; explicit ``points`` are
appended as-is.  With ``fault_seed`` set, every compiled config that has
no explicit fault plan gets ``FaultPlan.random(fault_seed, num_nodes)``.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.analysis.experiments import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_REPS,
    DEFAULT_WARMUP,
    measure_barrier,
)
from repro.analysis.nbc_overlap import measure_nbc_overlap
from repro.campaign.serialize import (
    CODE_VERSION,
    cluster_config_from_dict,
    cluster_config_to_dict,
    content_key,
)
from repro.cluster.builder import ClusterConfig

#: Point keys that are not harness keys must name one of these.
_CONFIG_FIELDS = frozenset(ClusterConfig.__dataclass_fields__)

#: Harness keys whose CampaignSpec fallback field has another name.
_SPEC_FIELD = {"iterations": "repetitions"}


@dataclass
class JobSpec:
    """One fully-resolved unit of campaign work.

    ``kind`` selects the worker entry point (``"measure"`` runs
    :func:`repro.analysis.experiments.measure_barrier`; ``"soak"`` runs
    one chaos-soak combination; ``"nbc_overlap"`` runs
    :func:`repro.analysis.nbc_overlap.measure_nbc_overlap`).  ``config``
    is the serialized cluster
    config, ``params`` the kind-specific parameters; both are plain
    JSON-able dicts so the job can cross a process boundary and be
    content-hashed.  ``tag`` is a human label for logs and reports and
    is deliberately *excluded* from the cache key.
    """

    kind: str
    config: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    tag: str = ""

    def cache_key(self, code_version: str = CODE_VERSION) -> str:
        """Content hash of (kind, config, params) + the code version."""
        return content_key(
            {"kind": self.kind, "config": self.config, "params": self.params},
            code_version=code_version,
        )

    def to_dict(self) -> dict:
        """A plain dict (what travels to worker processes)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            kind=data["kind"],
            config=dict(data.get("config", {})),
            params=dict(data.get("params", {})),
            tag=data.get("tag", ""),
        )


def _measure_label(params: dict) -> str:
    where = "nic" if params["nic_based"] else "host"
    label = f"{where}-{params['algorithm']}"
    if params["dimension"] is not None:
        label += f"-d{params['dimension']}"
    return label


def _nbc_label(params: dict) -> str:
    return f"c{params['compute_us']:g}-k{params['skew_max_us']:g}"


class JobKind(NamedTuple):
    """One job kind: the harness the executor calls as
    ``harness(config, **params)``, its point keys (each with the cast
    compile applies, or None) and the params part of its tag."""

    harness: Callable
    keys: Dict[str, Optional[type]]
    label: Callable[[dict], str]


#: Every job kind a CampaignSpec compiles to.
KINDS: Dict[str, JobKind] = {
    "measure": JobKind(
        measure_barrier,
        {"nic_based": bool, "algorithm": str, "dimension": None,
         "repetitions": int, "warmup": int, "skew_max_us": float,
         "max_events": None, "critical_path": bool, "telemetry": bool},
        _measure_label,
    ),
    "nbc_overlap": JobKind(
        measure_nbc_overlap,
        {"iterations": int, "compute_us": float, "chunk_us": float,
         "skew_max_us": float, "max_events": None},
        _nbc_label,
    ),
}


@dataclass
class CampaignSpec:
    """A declarative sweep; see the module docstring for semantics.

    ``kind`` selects what each point measures: ``"measure"`` (the
    default) runs the blocking-barrier latency harness; ``"nbc_overlap"``
    runs the non-blocking communication/computation overlap harness,
    whose points carry ``iterations``, ``compute_us``, ``chunk_us``,
    ``skew_max_us`` and ``max_events`` instead (see :data:`KINDS`).
    """

    name: str = "campaign"
    #: Serialized ClusterConfig the points start from (partial is fine).
    base_config: dict = field(default_factory=dict)
    #: Cartesian axes: key -> list of values.
    grid: Dict[str, list] = field(default_factory=dict)
    #: Explicit sweep points appended after the grid expansion.
    points: List[dict] = field(default_factory=list)
    repetitions: int = DEFAULT_REPS
    warmup: int = DEFAULT_WARMUP
    skew_max_us: float = 0.0
    #: Derive a FaultPlan.random(fault_seed, num_nodes) for every point
    #: whose config does not already carry an explicit plan.
    fault_seed: Optional[int] = None
    max_events: Optional[int] = DEFAULT_MAX_EVENTS
    #: Attach a critical-path summary to every measurement (one extra
    #: traced barrier per job; see :mod:`repro.analysis.critical_path`).
    critical_path: bool = False
    #: Sample component time series during every measurement and attach
    #: the digest (see :mod:`repro.telemetry`; the sampler is a pure
    #: reader, so latencies are unchanged).
    telemetry: bool = False
    #: Job kind every point compiles to: "measure" (blocking-barrier
    #: latency) or "nbc_overlap" (non-blocking overlap harness).
    kind: str = "measure"
    #: Times a job whose worker process *died* (BrokenProcessPool) is
    #: re-run on a fresh pool before counting as failed.  Worker death
    #: is an infrastructure fault (OOM kill, segfault), not a property
    #: of the job, so one retry is cheap insurance; ``0`` disables.
    max_retries: int = 1

    # -- config round-trip ------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-able dict reproducing this spec via :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown CampaignSpec keys: {sorted(unknown)}")
        return cls(**data)

    # -- expansion --------------------------------------------------------
    def expand_points(self) -> List[dict]:
        """Grid product (axes in sorted-name order) + explicit points."""
        out: List[dict] = []
        if self.grid:
            axes = sorted(self.grid)
            for combo in itertools.product(*(self.grid[a] for a in axes)):
                out.append(dict(zip(axes, combo)))
        out.extend(dict(p) for p in self.points)
        if not out:
            out.append({})
        return out

    def compile(self) -> List[JobSpec]:
        """Resolve every point into an executable, hashable job."""
        from repro.faults.plan import FaultPlan  # lazy: avoids pkg cycle

        if self.kind not in KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        harness, keys, label = KINDS[self.kind]
        defaults = inspect.signature(harness).parameters
        fields = vars(self)
        fallback = {
            key: fields.get(_SPEC_FIELD.get(key, key), defaults[key].default)
            for key in keys
        }
        jobs: List[JobSpec] = []
        for point in self.expand_points():
            unknown = set(point) - set(keys) - _CONFIG_FIELDS
            if unknown:
                raise ValueError(
                    f"campaign {self.name!r}: unknown point keys "
                    f"{sorted(unknown)}"
                )
            params = {}
            for key, cast in keys.items():
                value = point.get(key, fallback[key])
                params[key] = value if cast is None else cast(value)
            config_dict = dict(self.base_config)
            config_dict.update(
                {k: v for k, v in point.items() if k not in keys}
            )
            config = cluster_config_from_dict(config_dict)
            if self.fault_seed is not None and config.fault_plan is None:
                config = config.with_(
                    fault_plan=FaultPlan.random(
                        self.fault_seed, config.num_nodes
                    )
                )
            resolved = cluster_config_to_dict(config)
            seed = f"/s{resolved['seed']}" if resolved.get("seed") else ""
            jobs.append(
                JobSpec(
                    kind=self.kind,
                    config=resolved,
                    params=params,
                    tag=f"{self.name}/{resolved['lanai_model']['name']}"
                    f"/n{resolved['num_nodes']}/{label(params)}{seed}",
                )
            )
        return jobs
