"""Telemetry series export: JSONL samples and Chrome counter events.

Two consumers of a :class:`~repro.telemetry.sampler.Telemetry`:

- :func:`write_telemetry_jsonl` — one JSON object per sample, greppable
  and joinable against the tracer's JSONL export on the ``t`` field;
- :func:`counter_events` — Chrome ``trace_event`` counter (``"C"``)
  events, merged into a trace by passing the series to
  ``Tracer.to_chrome_trace(counter_series=...)`` so Perfetto draws the
  sampled gauges as track charts under the matching process row.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.fileio import atomic_write_text

from .series import TimeSeries

__all__ = ["telemetry_jsonl_lines", "write_telemetry_jsonl", "counter_events"]


def telemetry_jsonl_lines(series: Iterable[TimeSeries]) -> List[str]:
    """One line per sample: name, component, kind, unit, t (us), value."""
    lines: List[str] = []
    for s in sorted(series, key=lambda s: s.name):
        head = {"name": s.name, "component": s.component, "kind": s.kind, "unit": s.unit}
        for t, v in s.iter_points():
            rec = dict(head)
            rec["t"] = t
            rec["value"] = v
            lines.append(json.dumps(rec, sort_keys=True))
    return lines


def write_telemetry_jsonl(path: str, series: Iterable[TimeSeries]) -> str:
    """Atomically write the JSONL export (temp file + rename)."""
    text = "\n".join(telemetry_jsonl_lines(series))
    return atomic_write_text(path, text + "\n" if text else "")


def counter_events(
    series: Iterable[TimeSeries],
    pids: Optional[Dict[str, int]] = None,
    *,
    default_pid: int = 0,
) -> List[dict]:
    """Chrome ``trace_event`` counter events for the given series.

    ``pids`` maps trace categories to process ids (the same mapping
    ``Tracer.to_chrome_trace`` builds from its categories); a series
    whose ``component`` matches a category lands on that process row,
    everything else on ``default_pid``.  One counter track per series
    name; ``ts`` is simulated microseconds, like the rest of the trace.
    """
    pids = pids or {}
    events: List[dict] = []
    for s in sorted(series, key=lambda s: s.name):
        pid = pids.get(s.component, default_pid)
        for t, v in s.iter_points():
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "name": s.name,
                    "ts": t,
                    "args": {"value": v},
                }
            )
    return events
