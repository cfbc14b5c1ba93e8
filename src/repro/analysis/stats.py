"""Latency statistics helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample (microseconds)."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f}us std={self.std:.2f} "
            f"min={self.minimum:.2f} p50={self.p50:.2f} "
            f"p95={self.p95:.2f} max={self.maximum:.2f}"
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` (0..100) of sorted data
    (Hyndman and Fan's definition 7, the usual "linear" method)."""
    index = q / 100 * (len(ordered) - 1)
    lo = math.floor(index)
    a = ordered[lo]
    b = ordered[min(lo + 1, len(ordered) - 1)]
    t = index - lo
    # Lerp from the nearer end, which keeps the result within [a, b].
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def summarize(samples: Sequence[float]) -> LatencyStats:
    """Compute summary statistics for a latency sample."""
    if not len(samples):
        raise ValueError("empty sample")
    values = [float(x) for x in samples]
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1) if n > 1 else 0.0
    ordered = sorted(values)
    return LatencyStats(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=ordered[0],
        p50=_percentile(ordered, 50),
        p95=_percentile(ordered, 95),
        maximum=ordered[-1],
    )


def improvement_factor(host_latency: float, nic_latency: float) -> float:
    """Equation 3 applied to two measured latencies."""
    if nic_latency <= 0:
        raise ValueError("NIC latency must be positive")
    return host_latency / nic_latency
