"""Sim-time periodic sampling of component state into time series.

``Telemetry`` is owned by every :class:`repro.sim.engine.Simulator` as
``sim.telemetry``, mirroring the ``sim.metrics`` registry.  Components
(`Nic`, links, switch ports, DMA engines, the engine itself) register
cheap **pull callbacks**; an internal tick event fires every
``sample_us`` of simulated time and snapshots every probe into a
ring-buffered :class:`~repro.telemetry.series.TimeSeries`.

Disabled telemetry is a null object: ``register()`` returns ``None``
and records nothing, ``start()`` schedules nothing, and the simulation
never sees a tick event — the same <5% overhead bar the metrics
registry meets.

Two probe kinds:

- ``gauge`` — the callback's value is stored as-is (queue depth,
  in-flight bytes, pause state);
- ``counter`` — the callback returns a monotone total (bytes moved,
  busy microseconds, events scheduled); the sampler stores the **rate
  per simulated microsecond** over the last sampling interval.  The
  first tick only seeds the baseline.  A busy-time total sampled this
  way yields utilization in [0, 1] per interval.

Scheduling notes: ticks run at low priority so a sample observes the
state *after* all same-timestamp simulation work, and the sampler
reschedules itself only while ``sim.peek()`` reports other live work —
so it never keeps ``sim.run()`` from draining.  If the simulation goes
quiescent and is later given new work, ``start()`` re-arms (idempotent
while a tick is pending); ``Cluster.run`` does this automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .series import DEFAULT_CAPACITY, TimeSeries

DEFAULT_SAMPLE_US = 10.0

# Keep this module importable by the engine: repro.sim.engine imports
# repro.telemetry, so we cannot import engine's PRIORITY_LOW back.
_PRIORITY_LOW = 1  # == repro.sim.engine.PRIORITY_LOW

__all__ = ["Telemetry", "Probe", "DEFAULT_SAMPLE_US"]


class Probe:
    """One registered pull callback feeding one series."""

    __slots__ = ("series", "fn", "kind", "_last_value", "_last_time")

    def __init__(self, series: TimeSeries, fn: Callable[[], float], kind: str) -> None:
        self.series = series
        self.fn = fn
        self.kind = kind
        self._last_value: float = 0.0
        self._last_time: Optional[float] = None


class Telemetry:
    """Periodic sampler owned by a simulator (``sim.telemetry``)."""

    def __init__(
        self,
        sim,
        *,
        enabled: bool = False,
        sample_us: float = DEFAULT_SAMPLE_US,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if enabled and sample_us <= 0:
            raise ValueError(f"telemetry sample_us must be positive, got {sample_us}")
        self.sim = sim
        self.enabled = bool(enabled)
        self.sample_us = float(sample_us)
        self.capacity = int(capacity)
        self.samples_taken = 0
        self._probes: List[Probe] = []
        self._series: Dict[str, TimeSeries] = {}
        self._handle = None  # pending tick entry, or None

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        fn: Callable[[], float],
        *,
        kind: str = "gauge",
        component: str = "",
        unit: str = "",
    ) -> Optional[TimeSeries]:
        """Register a pull callback; returns its series (None when disabled).

        Series names must be unique per simulator — duplicates raise,
        matching the metrics registry's uniqueness guarantee.
        """
        if not self.enabled:
            return None
        if kind not in ("gauge", "counter"):
            raise ValueError(f"unknown telemetry probe kind {kind!r}")
        if name in self._series:
            raise ValueError(f"telemetry series {name!r} already registered")
        series = TimeSeries(
            name, component=component, kind=kind, unit=unit, capacity=self.capacity
        )
        self._series[name] = series
        self._probes.append(Probe(series, fn, kind))
        return series

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Arm the sampling tick (no-op when disabled or already armed)."""
        if not self.enabled or self._handle is not None:
            return
        self._arm(0.0)

    def close(self) -> None:
        """Detach from the closed simulator (which dropped the pending
        tick): probes are dropped, series kept."""
        self._probes = []
        self.sim = None

    def _arm(self, delay: float) -> None:
        self._handle = self.sim.schedule(delay, self._tick, priority=_PRIORITY_LOW)

    def _tick(self) -> None:
        self._handle = None
        self.sample()
        # Reschedule only while other live work exists; otherwise go
        # dormant so run() drains.  peek() is callback-safe (it may
        # flush wheel buckets onto the heap the run loop pops from).
        if self.sim.peek() is not None:
            self._arm(self.sample_us)

    # -- sampling -------------------------------------------------------

    def sample(self) -> None:
        """Take one snapshot of every probe at the current sim time."""
        if not self.enabled:
            return
        now = self.sim.now
        self.samples_taken += 1
        for probe in self._probes:
            value = float(probe.fn())
            if probe.kind == "counter":
                last_v, last_t = probe._last_value, probe._last_time
                probe._last_value = value
                probe._last_time = now
                if last_t is None or now <= last_t:
                    continue  # first tick seeds the baseline only
                value = (value - last_v) / (now - last_t)
            probe.series.append(now, value)

    # -- access ---------------------------------------------------------

    @property
    def series(self) -> Dict[str, TimeSeries]:
        """Name -> series mapping (a copy; safe to mutate)."""
        return dict(self._series)

    def get(self, name: str) -> Optional[TimeSeries]:
        """One series by name, or None."""
        return self._series.get(name)

    def components(self) -> Dict[str, List[TimeSeries]]:
        """Series grouped by component name."""
        out: Dict[str, List[TimeSeries]] = {}
        for s in self._series.values():
            out.setdefault(s.component, []).append(s)
        return out

    def summary(self, *, rollup_us: Optional[float] = None) -> Dict[str, object]:
        """JSON-able digest: per-series overall stats (optionally rollups)."""
        return {
            "enabled": self.enabled,
            "sample_us": self.sample_us,
            "samples_taken": self.samples_taken,
            "series": {
                name: s.to_dict(rollup_us=rollup_us)
                for name, s in sorted(self._series.items())
            },
        }
