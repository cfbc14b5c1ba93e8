"""Sim-time sampled telemetry: ring-buffered time series per component.

See :mod:`repro.telemetry.sampler` for the sampling model and
``docs/observability.md`` ("Time-series telemetry & hotspot
attribution") for the user-facing walkthrough.
"""

from .export import counter_events, telemetry_jsonl_lines, write_telemetry_jsonl
from .sampler import CONTENTION_SIGNALS, DEFAULT_SAMPLE_US, PROBE_KINDS, Probe, Telemetry
from .series import DEFAULT_CAPACITY, TimeSeries, percentile

__all__ = [
    "Telemetry",
    "Probe",
    "PROBE_KINDS",
    "CONTENTION_SIGNALS",
    "TimeSeries",
    "percentile",
    "counter_events",
    "telemetry_jsonl_lines",
    "write_telemetry_jsonl",
    "DEFAULT_SAMPLE_US",
    "DEFAULT_CAPACITY",
]
