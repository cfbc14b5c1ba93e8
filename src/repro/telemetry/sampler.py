"""Sim-time periodic sampling of the simulator's probes into time series.

``Telemetry`` is owned by every :class:`repro.sim.engine.Simulator` as
``sim.telemetry``, next to the ``sim.metrics`` registry.  Both read the
one probe table components declare into with ``sim.probe(...)`` (a
:class:`Probe` per quantity); an internal tick event fires every
``sample_us`` of simulated time and snapshots every probe into a
ring-buffered :class:`~repro.telemetry.series.TimeSeries`.

Disabled telemetry is a null object: it makes no series, ``start()``
schedules nothing, and the simulation never sees a tick event -- the
same <5% overhead bar the metrics registry meets.  With both views off
components declare no probe at all.

Two probe kinds:

- ``gauge`` -- the getter's value is stored as-is (queue depth,
  in-flight bytes, pause state);
- ``counter`` -- the getter returns a monotone total (bytes moved,
  busy microseconds, events scheduled); the sampler stores the **rate
  per simulated microsecond** over the last sampling interval.  The
  first tick only seeds the baseline.  A busy-time total sampled this
  way yields utilization in [0, 1] per interval.

Scheduling notes: ticks run at low priority so a sample observes the
state *after* all same-timestamp simulation work, and the sampler
reschedules itself only while ``sim.peek()`` reports other live work --
so it never keeps ``sim.run()`` from draining.  If the simulation goes
quiescent and is later given new work, ``start()`` re-arms (idempotent
while a tick is pending); ``Cluster.run`` does this automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .series import DEFAULT_CAPACITY, TimeSeries

DEFAULT_SAMPLE_US = 10.0

# Keep this module importable by the engine: repro.sim.engine imports
# repro.telemetry, so we cannot import engine's PRIORITY_LOW back.
_PRIORITY_LOW = 1  # == repro.sim.engine.PRIORITY_LOW

#: The probe kinds: a gauge is a level, a counter a monotone total.
PROBE_KINDS = ("gauge", "counter")

#: Series-name suffix -> the contention signal it feeds.  A busy-time
#: total sampled as a counter is utilization; depths and backlogs are
#: queues; a paused port is paused.  Hotspot scoring and the campaign
#: store's busiest-series digest both read this table.
CONTENTION_SIGNALS = {
    "busy_us": "util",
    "queue": "queue",
    "depth": "queue",
    "backlog": "queue",
    "paused": "paused",
}

__all__ = [
    "Telemetry", "Probe", "PROBE_KINDS", "CONTENTION_SIGNALS",
    "DEFAULT_SAMPLE_US",
]


class Probe(NamedTuple):
    """One declared quantity (``Simulator.probe``): a pull getter the
    metrics snapshot reads at snapshot time and telemetry every tick."""

    name: str
    fn: Callable[[], float]
    kind: str
    component: str
    unit: str


class _Row:
    """One probe being sampled: its series and, for a counter, the total
    and time of the previous tick."""

    __slots__ = ("probe", "series", "last_value", "last_time")

    def __init__(self, probe: Probe, series: TimeSeries) -> None:
        self.probe = probe
        self.series = series
        self.last_value = 0.0
        self.last_time: Optional[float] = None


class Telemetry:
    """Periodic sampler owned by a simulator (``sim.telemetry``)."""

    def __init__(
        self,
        sim,
        *,
        enabled: bool = False,
        sample_us: float = DEFAULT_SAMPLE_US,
        capacity: int = DEFAULT_CAPACITY,
        probes: Sequence[Probe] = (),
    ) -> None:
        if enabled and sample_us <= 0:
            raise ValueError(f"telemetry sample_us must be positive, got {sample_us}")
        self.sim = sim
        self.enabled = bool(enabled)
        self.sample_us = float(sample_us)
        self.capacity = int(capacity)
        self.samples_taken = 0
        #: The simulator's probe table, which this sampler reads.
        self._probes = probes
        #: One row per probe read so far, in table order.
        self._rows: List[_Row] = []
        self._series: Dict[str, TimeSeries] = {}
        self._handle = None  # pending tick entry, or None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Arm the sampling tick (no-op when disabled or already armed)."""
        if not self.enabled or self._handle is not None:
            return
        self._arm(0.0)

    def close(self) -> None:
        """Detach from the closed simulator, which dropped the pending
        tick and clears the probe table: getters are dropped, series
        kept."""
        self._sync()
        self._rows = []
        self.sim = None

    def _sync(self) -> None:
        """Give every probe declared since the last call its series."""
        if not self.enabled:
            return
        for probe in self._probes[len(self._rows):]:
            series = TimeSeries(
                probe.name, component=probe.component, kind=probe.kind,
                unit=probe.unit, capacity=self.capacity,
            )
            self._series[probe.name] = series
            self._rows.append(_Row(probe, series))

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
        self._sync()
        now = self.sim.now
        self.samples_taken += 1
        for row in self._rows:
            probe = row.probe
            value = float(probe.fn())
            if probe.kind == "counter":
                last_v, last_t = row.last_value, row.last_time
                row.last_value, row.last_time = value, now
                if last_t is None or now <= last_t:
                    continue  # first tick seeds the baseline only
                value = (value - last_v) / (now - last_t)
            row.series.append(now, value)

    # -- access ---------------------------------------------------------

    @property
    def series(self) -> Dict[str, TimeSeries]:
        """Name -> series mapping (a copy; safe to mutate)."""
        self._sync()
        return dict(self._series)

    def get(self, name: str) -> Optional[TimeSeries]:
        """One series by name, or None."""
        self._sync()
        return self._series.get(name)

    def components(self) -> Dict[str, List[TimeSeries]]:
        """Series grouped by component name."""
        self._sync()
        out: Dict[str, List[TimeSeries]] = {}
        for s in self._series.values():
            out.setdefault(s.component, []).append(s)
        return out

    def summary(self, *, rollup_us: Optional[float] = None) -> Dict[str, object]:
        """JSON-able digest: per-series overall stats (optionally rollups)."""
        self._sync()
        return {
            "enabled": self.enabled,
            "sample_us": self.sample_us,
            "samples_taken": self.samples_taken,
            "series": {
                name: s.to_dict(rollup_us=rollup_us)
                for name, s in sorted(self._series.items())
            },
        }
