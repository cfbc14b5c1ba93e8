"""Content-addressed result storage for campaign jobs.

One JSON file per cache key under the store root (default
``.campaign-cache/``), written atomically, plus a consolidated
``BENCH_campaign.json`` artifact writer summarizing a whole campaign
run.  A record stores the job's kind/tag/config/params next to the
result, so any cache entry is self-describing and a hit can be audited
against the spec that produced it.

Invalidation is purely by key: a record whose key no longer matches any
compiled job (because a config changed, or because
:data:`~repro.campaign.serialize.CODE_VERSION` was bumped) is simply
never read again.  ``prune()`` removes such orphans when asked; nothing
is deleted implicitly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.campaign.serialize import CODE_VERSION
from repro.campaign.spec import JobSpec
from repro.fileio import atomic_write_text
from repro.telemetry import CONTENTION_SIGNALS

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".campaign-cache"

#: Name of the consolidated campaign artifact.
BENCH_ARTIFACT = "BENCH_campaign.json"


class ResultStore:
    """JSON-file result cache keyed by content hash."""

    def __init__(
        self,
        root: os.PathLike | str = DEFAULT_CACHE_DIR,
        code_version: str = CODE_VERSION,
    ) -> None:
        self.root = Path(root)
        self.code_version = code_version
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys and paths ---------------------------------------------------
    def key_for(self, job: JobSpec) -> str:
        """The cache key of a job under this store's code version."""
        return job.cache_key(code_version=self.code_version)

    def path_for(self, key: str) -> Path:
        """Where the record for ``key`` lives (existing or not)."""
        return self.root / f"{key}.json"

    # -- record access ----------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored record, or None on miss / corrupt / stale entry."""
        path = self.path_for(key)
        try:
            with open(path) as f:
                record = json.load(f)
        except (OSError, ValueError):
            return None
        if record.get("key") != key:
            return None  # file renamed or truncated mid-write: treat as miss
        return record

    def put(self, job: JobSpec, key: str, result: dict) -> dict:
        """Store a successful job result under ``key``, the job's
        :meth:`key_for`; returns the full record.

        The write is atomic (:func:`~repro.fileio.atomic_write_text`) so
        a crashed or parallel writer can never leave a half-record that
        a later run would trust.
        """
        record = {
            "key": key,
            "code_version": self.code_version,
            "kind": job.kind,
            "tag": job.tag,
            "config": job.config,
            "params": job.params,
            "result": result,
        }
        atomic_write_text(
            self.path_for(key), json.dumps(record, indent=1, sort_keys=True)
        )
        return record

    # -- introspection ----------------------------------------------------
    def keys(self) -> List[str]:
        """Every key with a record on disk."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def prune(self, live_keys: Iterable[str]) -> List[str]:
        """Delete records not in ``live_keys``; returns removed keys."""
        live = set(live_keys)
        removed = []
        for key in self.keys():
            if key not in live:
                self.path_for(key).unlink(missing_ok=True)
                removed.append(key)
        return removed


def write_bench(path: os.PathLike | str, result) -> Path:
    """Write the consolidated ``BENCH_campaign.json`` artifact.

    ``result`` is a :class:`~repro.campaign.executor.CampaignResult`.
    The artifact carries the campaign totals (jobs / cache hits /
    simulated / failed), one entry per job (tag, key, outcome, the
    result payload or the error + traceback) and the metrics snapshot,
    so a CI run leaves a machine-readable trajectory of exactly what was
    measured and what came from cache.
    """
    path = Path(path)
    if path.is_dir():
        path = path / BENCH_ARTIFACT
    jobs: List[dict] = []
    critical_paths: List[dict] = []
    telemetry: List[dict] = []
    for jr in result.results:
        jobs.append(
            {
                "tag": jr.spec.tag,
                "kind": jr.spec.kind,
                "key": jr.key,
                "ok": jr.ok,
                "cached": jr.cached,
                "elapsed_s": round(jr.elapsed_s, 6),
                "result": jr.value,
                "error": jr.error,
                "traceback": jr.traceback,
                "flight": getattr(jr, "flight", None),
            }
        )
        cp = (jr.value or {}).get("critical_path")
        if cp:
            # Compact per-job attribution summary next to the totals, so
            # stragglers are greppable without digging into each job.
            critical_paths.append(
                {
                    "tag": jr.spec.tag,
                    "total_us": cp.get("total_us"),
                    "by_segment": cp.get("by_segment"),
                    "straggler_chain": cp.get("straggler_chain"),
                }
            )
        tel = (jr.value or {}).get("telemetry")
        if tel:
            # Per-job contention digest: busiest series by window mean,
            # so a congested port is greppable from the artifact alone.
            series = tel.get("series", {})
            busiest = sorted(
                (
                    (doc.get("stats", {}).get("mean", 0.0), name)
                    for name, doc in series.items()
                    if name.rsplit(".", 1)[-1] in CONTENTION_SIGNALS
                ),
                reverse=True,
            )[:5]
            telemetry.append(
                {
                    "tag": jr.spec.tag,
                    "sample_us": tel.get("sample_us"),
                    "samples_taken": tel.get("samples_taken"),
                    "series": len(series),
                    "busiest": [
                        {"name": name, "mean": mean} for mean, name in busiest
                    ],
                }
            )
    payload: Dict = {
        "campaign": result.name,
        "code_version": result.code_version,
        "totals": {
            "jobs": len(result.results),
            "cache_hits": result.cache_hits,
            "simulated": result.simulated,
            "failed": result.failed,
        },
        "elapsed_s": round(result.elapsed_s, 6),
        "metrics": result.metrics.snapshot(),
        "jobs": jobs,
    }
    if critical_paths:
        payload["critical_paths"] = critical_paths
    if telemetry:
        payload["telemetry"] = telemetry
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True)
    )
