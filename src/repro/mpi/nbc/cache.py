"""Per-communicator schedule caching.

Compiling a schedule is pure host-side combinatorics, but at production
call rates (millions of collectives over long-lived communicators) it is
pure waste: the schedule depends only on ``(kind, size, rank, op,
root)`` -- never on payload values or call count.  A
:class:`ScheduleCache` therefore memoizes compiled
:class:`~repro.core.schedule.Schedule` objects per communicator,
keyed by the canonical :func:`~repro.core.schedule.schedule_signature`,
exactly the ``NBC_CACHE_SCHEDULE`` design of libNBC.

Observability: hits, misses and compiles are counted both locally (the
``stats`` attribute, always on) and -- when the owning simulation has a
live registry -- as ``nbc.cache.*`` metrics through
:mod:`repro.sim.metrics`; the ``nbc.cache.entries`` gauge totals the
schedules cached across all the simulation's communicators.

Invalidation: a communicator reconfiguration (group membership or rank
change) makes every cached schedule wrong, so
:meth:`ScheduleCache.invalidate` drops them all and bumps the epoch the
progress engine stamps into message envelopes -- in-flight messages from
the old group can then never match a post-reconfiguration schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.schedule import Schedule


@dataclass
class CacheStats:
    """Always-on local counters (metrics registries may be disabled)."""

    hits: int = 0
    misses: int = 0
    compiles: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict:
        """A plain-dict snapshot for assertions and bench artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "invalidations": self.invalidations,
        }


class ScheduleCache:
    """Memoized compiled schedules for one communicator.

    Parameters
    ----------
    metrics:
        The owning simulation's :class:`~repro.sim.metrics.MetricsRegistry`
        (or ``None`` / a disabled registry -- local stats still count).
    enabled:
        ``False`` turns the cache into a pass-through that compiles on
        every request; used to prove cached and cold schedules drive
        bit-identical event traces.
    """

    def __init__(self, metrics=None, enabled: bool = True) -> None:
        self.metrics = metrics
        self.enabled = enabled
        self.stats = CacheStats()
        #: Epoch stamped into message envelopes; bumped on invalidation.
        self.epoch = 0
        self._entries: Dict[tuple, Schedule] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"nbc.cache.{name}").inc()

    def get_or_compile(
        self, signature: tuple, compiler: Callable[[], Schedule]
    ) -> Schedule:
        """The schedule for ``signature``, compiling (and caching) on miss."""
        if self.enabled:
            cached = self._entries.get(signature)
            if cached is not None:
                self.stats.hits += 1
                self._count("hits")
                return cached
        self.stats.misses += 1
        self.stats.compiles += 1
        self._count("misses")
        self._count("compiles")
        schedule = compiler()
        if schedule.signature != signature:
            raise ValueError(
                f"compiler produced signature {schedule.signature!r} "
                f"for cache key {signature!r}"
            )
        if self.enabled:
            self._entries[signature] = schedule
            self._add_entries(1)
        return schedule

    def _add_entries(self, n: int) -> None:
        """Move the simulation-wide ``nbc.cache.entries`` gauge, which
        totals the schedules cached by every communicator."""
        if self.metrics is not None:
            gauge = self.metrics.gauge("nbc.cache.entries")
            gauge.set(gauge.value + n)

    def invalidate(self) -> None:
        """Drop every entry and bump the epoch (communicator reconfigured)."""
        self._add_entries(-len(self._entries))
        self._entries.clear()
        self.epoch += 1
        self.stats.invalidations += 1
        self._count("invalidations")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ScheduleCache entries={len(self._entries)} "
            f"epoch={self.epoch} {self.stats.as_dict()}>"
        )
