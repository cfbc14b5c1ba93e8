"""The simulation metrics registry.

Components register named instruments here -- counters, gauges,
(optionally weighted) histograms and busy-time accumulators -- and the
registry renders one flat ``name -> value`` snapshot at the end of a run.
This is the measurement substrate behind the paper's evaluation style
(Figures 2 and 5 are latency *decompositions*): NIC busy time, PCI
contention waits, link utilization, queue high-water marks and resend
counters all land in one table instead of being scattered over ad-hoc
attributes.

Design rules:

* **Disabled means free.**  A registry built with ``enabled=False`` hands
  out shared null instruments whose mutators are no-ops and registers
  nothing, so an uninstrumented run pays one method call per record site
  and nothing else.  The :mod:`repro.sim.engine` profiling hooks are
  additionally gated behind ``Simulator(profile=True)``.
* **Cheap sources, lazy collection.**  Hot components keep plain Python
  counters (as they always have) and declare a getter for each with
  ``Simulator.probe``; the snapshot reads every probe of the
  simulator's one table, which telemetry samples too.  Instruments that
  must integrate over time (busy-time) are the exception and are updated
  inline.
* **Create-or-get.**  Asking for the same name twice returns the same
  instrument, so the registering side never needs existence checks.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing count (events, packets, resends)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` to the count."""
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A sampled level (queue depth, window occupancy) with a high-water
    mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        """Record the current level (tracks the maximum seen)."""
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value} hw={self.high_water}>"


class Histogram:
    """Summary statistics over observations, optionally weighted.

    The weight defaults to 1 (plain sample).  Passing the duration a
    value was held as its weight gives a *time-weighted* distribution --
    e.g. ``observe(queue_depth, weight=dt)`` yields the time-average
    depth rather than the per-change average.
    """

    __slots__ = ("name", "count", "total_weight", "weighted_sum", "min", "max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total_weight = 0.0
        self.weighted_sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Record one observation with the given weight."""
        if weight < 0:
            raise ValueError("histogram weight must be >= 0")
        self.count += 1
        self.total_weight += weight
        self.weighted_sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Weighted mean of the observations (0.0 when empty)."""
        if self.total_weight == 0:
            return 0.0
        return self.weighted_sum / self.total_weight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3f}>"


class BusyTime:
    """Accumulates the simulated time during which a component is busy.

    Overlapping ``begin``/``end`` intervals are merged, not summed: the
    accumulator counts wall (simulated) time with *at least one* interval
    open, which is the utilization semantics the paper's host-CPU and
    NIC-occupancy numbers use.  ``begin``/``end`` must balance.
    """

    __slots__ = ("name", "_sim", "_active", "_opened_at", "_busy")

    def __init__(self, sim: Any, name: str = "") -> None:
        self.name = name
        self._sim = sim
        self._active = 0
        self._opened_at = 0.0
        self._busy = 0.0

    def begin(self) -> None:
        """Open one busy interval."""
        if self._active == 0:
            self._opened_at = self._sim.now
        self._active += 1

    def end(self) -> None:
        """Close one busy interval."""
        if self._active <= 0:
            raise RuntimeError(f"BusyTime {self.name!r}: end() without begin()")
        self._active -= 1
        if self._active == 0:
            self._busy += self._sim.now - self._opened_at

    @property
    def busy_us(self) -> float:
        """Total busy time, including any interval still open."""
        if self._active > 0:
            return self._busy + (self._sim.now - self._opened_at)
        return self._busy

    def utilization(self, since: float = 0.0) -> float:
        """Busy fraction of the window from ``since`` to now."""
        elapsed = self._sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_us / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BusyTime {self.name} busy={self.busy_us:.3f}us>"


class _NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()
    name = ""
    value = 0
    high_water = 0.0
    count = 0
    total_weight = 0.0
    weighted_sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0
    busy_us = 0.0
    _active = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, weight: float = 1.0) -> None:
        pass

    def begin(self) -> None:
        pass

    def end(self) -> None:
        pass

    def utilization(self, since: float = 0.0) -> float:
        return 0.0


#: The one null instrument every disabled registry hands out.
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Create-or-get registry of named instruments for one simulation.

    Parameters
    ----------
    sim:
        The owning simulator; its clock stamps busy-time accounting.
    enabled:
        When False every factory returns :data:`NULL_INSTRUMENT` and
        snapshots read no probe, so instrumented code paths cost one
        no-op call.
    probes:
        The simulator's probe table (``Simulator.probe``), read at every
        snapshot.
    """

    def __init__(
        self, sim: Any, enabled: bool = True, probes: Sequence[Any] = ()
    ) -> None:
        self.sim = sim
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._busy: Dict[str, BusyTime] = {}
        self._probes = probes
        # name -> kind, across every instrument kind and the probes.
        # ``snapshot()`` flattens them all into one namespace, and
        # telemetry names its series the same way, so a reused name
        # raises when it is claimed instead of shadowing the first.
        # Probes claim theirs whichever view is on.
        self._claimed: Dict[str, str] = {}

    def claim(self, name: str, kind: str) -> None:
        """Reserve ``name`` for one instrument or probe (raises if held)."""
        held = self._claimed.get(name)
        if held is not None:
            raise ValueError(
                f"metric name {name!r} already registered as {held}; "
                f"re-registering it as {kind} would shadow it in snapshots"
            )
        self._claimed[name] = kind

    # -- instrument factories -------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        c = self._counters.get(name)
        if c is None:
            self.claim(name, "counter")
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        g = self._gauges.get(name)
        if g is None:
            self.claim(name, "gauge")
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        h = self._histograms.get(name)
        if h is None:
            self.claim(name, "histogram")
            h = self._histograms[name] = Histogram(name)
        return h

    def busy_time(self, name: str) -> BusyTime:
        """The busy-time accumulator under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        b = self._busy.get(name)
        if b is None:
            self.claim(name, "busy_time")
            b = self._busy[name] = BusyTime(self.sim, name)
        return b

    def close(self) -> None:
        """Detach from the closed simulator, which clears the probe
        table: busy times read a clock stopped at its final instant."""
        self.sim = clock = SimpleNamespace(now=self.sim.now)
        for busy in self._busy.values():
            busy._sim = clock

    # -- collection ------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """One flat ``name -> value`` mapping over every instrument.

        Histograms flatten to ``.count`` / ``.mean`` / ``.max`` entries;
        busy-time accumulators to ``.busy_us``.  A probe shows its
        getter's value: a counter its total, a gauge its level.
        """
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
            out[f"{name}.high_water"] = g.high_water
        for name, h in self._histograms.items():
            out[f"{name}.count"] = h.count
            out[f"{name}.mean"] = h.mean
            out[f"{name}.max"] = h.max if h.count else 0.0
        for name, b in self._busy.items():
            out[f"{name}.busy_us"] = b.busy_us
        if self.enabled:
            for probe in self._probes:
                out[probe.name] = probe.fn()
        return out

    def rows(self, skip_zero: bool = False) -> List[Tuple[str, float]]:
        """Sorted ``(name, value)`` rows, optionally dropping zero values."""
        snap = self.snapshot()
        return [
            (name, value)
            for name, value in sorted(snap.items())
            if not (skip_zero and not value)
        ]

    def table(self, title: Optional[str] = None, skip_zero: bool = True) -> str:
        """A plain-text two-column rendering of :meth:`rows`."""
        rows = self.rows(skip_zero=skip_zero)
        width = max((len(name) for name, _ in rows), default=6)
        lines: List[str] = []
        if title:
            lines.append(title)
        lines.append(f"{'metric'.ljust(width)}  value")
        lines.append(f"{'-' * width}  {'-' * 12}")
        for name, value in rows:
            if isinstance(value, float) and not value.is_integer():
                lines.append(f"{name.ljust(width)}  {value:.3f}")
            else:
                lines.append(f"{name.ljust(width)}  {int(value)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n = (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._busy)
            + len(self._probes)
        )
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} instruments={n}>"
