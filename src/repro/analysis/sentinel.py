"""Bench regression sentinel: robust baselines over `BENCH_*.json` files.

The repo accumulates benchmark artifacts with very different shapes —
`BENCH_engine.json` keeps a *trajectory* (one entry per recorded
stage), `BENCH_nbc.json` a grid of sweep rows, `BENCH_campaign.json`
totals plus per-job results.  The sentinel normalizes any of them to a
list of ``{label, metrics}`` entries, fits a per-metric baseline over
all entries **before the last one** (median + MAD — robust to a single
outlier stage), and flags the last entry's metrics that land outside a
configurable band:

    band = max(mad_k * MAD, rel_tol * |median|)

Wall-clock numbers from different machines do not compare, so a
trajectory stage may carry a ``machine`` key (``benchmarks/engine_speed.py``
stamps one: implementation, Python version, architecture, CPU count).
The newest entry is judged only against earlier entries with the same
key; entries without one form a single legacy group.

Whether a delta is a *regression* or an *improvement* depends on the
metric's direction, inferred from its name (``*_eps``/``*speedup``/
``*overlap_pct`` are higher-is-better; ``*_us``/``*_s``/``*latency``/
``*failed`` lower-is-better; anything else flags on either side).
Metrics with no prior history -- including every metric of a stage
whose machine ran no earlier stage -- report ``no_history`` and never
fail.

CLI (the CI gate)::

    python -m repro.analysis.sentinel BENCH_engine.json BENCH_nbc.json
    python -m repro.analysis.sentinel --strict BENCH_campaign.json

Exit status is 0 unless ``--strict`` is given and a regression was
flagged — so the same command runs first as a non-blocking report and
then as a blocking gate.  ``--baseline FILE`` prepends another
artifact's entries as history (how single-entry artifacts such as a CI
run's fresh `BENCH_campaign.json` get compared against the committed
one).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

DEFAULT_REL_TOL = 0.15
DEFAULT_MAD_K = 5.0

HIGHER_BETTER_SUFFIXES = (
    "_eps",
    "speedup",
    "overlap_pct",
    "_hits",
    "throughput",
    "saved_us_per_iter",
)
LOWER_BETTER_SUFFIXES = (
    "_us",
    "_s",
    "latency",
    "elapsed",
    "failed",
    "dropped",
    "stalls",
)

__all__ = [
    "MetricCheck",
    "SentinelReport",
    "metric_direction",
    "extract_entries",
    "check_entries",
    "check_file",
    "main",
]


def metric_direction(name: str) -> str:
    """``higher`` / ``lower`` / ``both`` — which deltas are regressions."""
    base = name.rsplit(".", 1)[-1]
    for suffix in HIGHER_BETTER_SUFFIXES:
        if base.endswith(suffix):
            return "higher"
    for suffix in LOWER_BETTER_SUFFIXES:
        if base.endswith(suffix):
            return "lower"
    return "both"


@dataclass
class MetricCheck:
    """One metric of the newest entry judged against its history."""

    metric: str
    value: float
    status: str  # ok | regression | improvement | no_history
    direction: str
    baseline: Optional[float] = None
    mad: Optional[float] = None
    band: Optional[float] = None
    delta: Optional[float] = None
    history: int = 0

    @property
    def delta_pct(self) -> Optional[float]:
        """Delta as a percentage of the baseline (None if undefined)."""
        if self.delta is None or not self.baseline:
            return None
        return 100.0 * self.delta / abs(self.baseline)


@dataclass
class SentinelReport:
    """All checks for one artifact."""

    path: str
    style: str  # trajectory | rows | campaign | flat
    label: str
    checks: List[MetricCheck]

    @property
    def regressions(self) -> List[MetricCheck]:
        """The checks that flagged as regressions."""
        return [c for c in self.checks if c.status == "regression"]

    @property
    def has_regressions(self) -> bool:
        """True when any metric regressed (the --strict exit signal)."""
        return bool(self.regressions)

    def render_table(self) -> str:
        """Human-readable check table, regressions sorted first."""
        rows = []
        for c in sorted(self.checks, key=lambda c: (c.status != "regression", c.metric)):
            if c.status == "no_history":
                rows.append([c.metric, f"{c.value:g}", "-", "-", "no_history"])
                continue
            pct = c.delta_pct
            rows.append(
                [
                    c.metric,
                    f"{c.value:g}",
                    f"{c.baseline:g}",
                    f"{pct:+.1f}%" if pct is not None else f"{c.delta:+g}",
                    c.status,
                ]
            )
        head = f"sentinel: {self.path} [{self.style}] newest={self.label}\n"
        verdict = (
            f"{len(self.regressions)} regression(s) flagged"
            if self.has_regressions
            else "no regressions"
        )
        return head + format_table(
            ["metric", "value", "baseline", "delta", "status"], rows
        ) + f"\n{verdict}\n"

    def summary(self) -> Dict[str, object]:
        """JSON-able form (what ``--json`` writes)."""
        return {
            "path": self.path,
            "style": self.style,
            "label": self.label,
            "regressions": [c.metric for c in self.regressions],
            "checks": [
                {
                    "metric": c.metric,
                    "value": c.value,
                    "baseline": c.baseline,
                    "band": c.band,
                    "delta": c.delta,
                    "direction": c.direction,
                    "status": c.status,
                    "history": c.history,
                }
                for c in self.checks
            ],
        }


def _numeric_items(mapping: Dict[str, object]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in mapping.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[key] = float(value)
    return out


def extract_entries(doc: dict) -> Tuple[str, List[dict]]:
    """Normalize any BENCH artifact to ``(style, [{label, metrics}])``.

    - engine-style ``trajectory`` → one entry per stage, with the
      stage's ``machine`` key (None when it has none);
    - nbc-style ``rows`` → one entry, metrics keyed per sweep cell;
    - campaign-style ``totals``/``jobs`` → one entry: totals, elapsed,
      and each successful job's mean latency keyed by tag;
    - anything else → one entry of the document's top-level numerics.
    """
    if "trajectory" in doc:
        entries = []
        for stage in doc["trajectory"]:
            entries.append(
                {
                    "label": str(stage.get("stage", f"entry{len(entries)}")),
                    "metrics": _numeric_items(stage),
                    "machine": stage.get("machine"),
                }
            )
        return "trajectory", entries
    if "rows" in doc:
        metrics: Dict[str, float] = {}
        for row in doc["rows"]:
            cell = f"c{row.get('compute_us', 0):g}s{row.get('skew_max_us', 0):g}"
            for key, value in _numeric_items(row).items():
                if key in ("compute_us", "skew_max_us", "num_nodes", "iterations"):
                    continue  # grid coordinates, not measurements
                metrics[f"{cell}.{key}"] = value
        label = str(doc.get("benchmark", "rows"))
        return "rows", [{"label": label, "metrics": metrics}]
    if "totals" in doc or "jobs" in doc:
        metrics = {}
        for key, value in _numeric_items(doc.get("totals", {})).items():
            if key in ("cache_hits", "simulated"):
                continue  # cache state, not performance: a warm rerun
                # legitimately flips these without anything regressing
            metrics[f"totals.{key}"] = value
        if isinstance(doc.get("elapsed_s"), (int, float)):
            metrics["elapsed_s"] = float(doc["elapsed_s"])
        for job in doc.get("jobs", []):
            result = job.get("result") or {}
            tag = job.get("tag")
            if tag and isinstance(result.get("mean_latency_us"), (int, float)):
                metrics[f"{tag}.mean_latency_us"] = float(result["mean_latency_us"])
        label = str(doc.get("campaign", "campaign"))
        return "campaign", [{"label": label, "metrics": metrics}]
    return "flat", [{"label": "document", "metrics": _numeric_items(doc)}]


def fit_baseline(values: Sequence[float]) -> Tuple[float, float]:
    """(median, MAD) of the history values."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    deviations = sorted(abs(v - median) for v in ordered)
    mad = deviations[mid] if n % 2 else 0.5 * (deviations[mid - 1] + deviations[mid])
    return median, mad


def check_entries(
    entries: Sequence[dict],
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    mad_k: float = DEFAULT_MAD_K,
) -> List[MetricCheck]:
    """Judge the last entry's metrics against the earlier entries that
    share its ``machine`` key (absent counts as one legacy machine)."""
    if not entries:
        return []
    newest = entries[-1]
    machine = newest.get("machine")
    history = [e for e in entries[:-1] if e.get("machine") == machine]
    checks: List[MetricCheck] = []
    for metric, value in sorted(newest["metrics"].items()):
        prior = [
            e["metrics"][metric] for e in history if metric in e["metrics"]
        ]
        direction = metric_direction(metric)
        if not prior:
            checks.append(
                MetricCheck(
                    metric=metric, value=value, status="no_history",
                    direction=direction,
                )
            )
            continue
        median, mad = fit_baseline(prior)
        band = max(mad_k * mad, rel_tol * abs(median), 1e-12)
        delta = value - median
        if direction == "higher":
            regressed, improved = delta < -band, delta > band
        elif direction == "lower":
            regressed, improved = delta > band, delta < -band
        else:
            regressed, improved = abs(delta) > band, False
        status = "regression" if regressed else ("improvement" if improved else "ok")
        checks.append(
            MetricCheck(
                metric=metric,
                value=value,
                status=status,
                direction=direction,
                baseline=median,
                mad=mad,
                band=band,
                delta=delta,
                history=len(prior),
            )
        )
    return checks


def check_file(
    path: str,
    *,
    baselines: Sequence[str] = (),
    rel_tol: float = DEFAULT_REL_TOL,
    mad_k: float = DEFAULT_MAD_K,
) -> SentinelReport:
    """Load one artifact (plus optional history files) and judge it."""
    with open(path) as fh:
        doc = json.load(fh)
    style, entries = extract_entries(doc)
    history: List[dict] = []
    for base_path in baselines:
        with open(base_path) as fh:
            base_doc = json.load(fh)
        _, base_entries = extract_entries(base_doc)
        history.extend(base_entries)
    entries = history + entries
    checks = check_entries(entries, rel_tol=rel_tol, mad_k=mad_k)
    return SentinelReport(
        path=path, style=style, label=str(entries[-1]["label"]) if entries else "",
        checks=checks,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sentinel",
        description="Flag bench-metric regressions against robust baselines.",
    )
    parser.add_argument("files", nargs="+", metavar="BENCH.json",
                        help="bench artifacts to check (newest entry judged)")
    parser.add_argument("--baseline", action="append", default=[], metavar="FILE",
                        help="artifact whose entries are prepended as history "
                             "(repeatable; for single-entry artifacts)")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative band around the median "
                             f"(default {DEFAULT_REL_TOL})")
    parser.add_argument("--mad-k", type=float, default=DEFAULT_MAD_K,
                        help=f"MAD multiplier for the band (default {DEFAULT_MAD_K})")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression is flagged "
                             "(default: report only)")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="also write the machine-readable summaries here")
    args = parser.parse_args(argv)

    reports = [
        check_file(path, baselines=args.baseline,
                   rel_tol=args.rel_tol, mad_k=args.mad_k)
        for path in args.files
    ]
    for report in reports:
        print(report.render_table())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.summary() for r in reports], fh, indent=1, sort_keys=True)
            fh.write("\n")
    flagged = [r for r in reports if r.has_regressions]
    if flagged:
        names = ", ".join(r.path for r in flagged)
        print(f"sentinel: regressions in {names}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
