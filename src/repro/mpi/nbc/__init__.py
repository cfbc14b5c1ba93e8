"""Non-blocking scheduled collectives (the libNBC idiom over GM).

The subsystem runs schedules of the package-wide IR in three cleanly
separated layers:

* :mod:`repro.core.schedule` -- the compiled, data-independent IR:
  rounds of send/recv/reduce/copy :class:`~repro.core.schedule.Op`
  primitives with implicit round barriers.  Its ``COMPILERS`` table maps
  each non-blocking kind to a shared compiler (dissemination Ibarrier,
  binomial Ibcast, recursive-doubling Iallreduce), the same compilers
  the blocking barriers and collectives run;
* :mod:`repro.mpi.nbc.cache` -- the per-communicator
  :class:`~repro.mpi.nbc.cache.ScheduleCache`, keyed by the canonical
  schedule signature, with hit/miss/compile metrics and epoch-bumping
  invalidation on communicator reconfiguration;
* :mod:`repro.mpi.nbc.engine` -- the
  :class:`~repro.mpi.nbc.engine.ProgressEngine` that starts schedules
  and advances them as GM messages land, returning
  :class:`~repro.mpi.nbc.engine.Request` handles with ``test`` /
  ``wait`` and module-level :func:`~repro.mpi.nbc.engine.waitall`.

User entry points are on the communicator itself:
:meth:`repro.mpi.communicator.Communicator.ibarrier` / ``ibcast`` /
``iallreduce``.  See ``docs/nbc.md`` for the design narrative.
"""

from repro.core.schedule import (
    COMPILERS,
    Op,
    Schedule,
    compile_iallreduce,
    compile_ibarrier,
    compile_ibcast,
    schedule_signature,
)
from repro.mpi.nbc.cache import CacheStats, ScheduleCache
from repro.mpi.nbc.engine import ProgressEngine, Request, waitall

__all__ = [
    "CacheStats",
    "COMPILERS",
    "Op",
    "ProgressEngine",
    "Request",
    "Schedule",
    "ScheduleCache",
    "compile_iallreduce",
    "compile_ibarrier",
    "compile_ibcast",
    "schedule_signature",
    "waitall",
]
