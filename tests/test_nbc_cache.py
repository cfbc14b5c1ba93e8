"""Schedule-cache semantics: hits, invalidation, metrics, and the
bit-identical-trace guarantee (cached vs cold compiles drive the same
simulation)."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.mpi import Communicator
from repro.mpi.nbc import ProgressEngine, ScheduleCache
from repro.core.schedule import compile_ibarrier, schedule_signature
from repro.sim.metrics import MetricsRegistry


def run_mpi(program, n=4, trace=False, metrics=False):
    """Run ``program(comm)`` on every rank of a fresh cluster."""
    cluster = build_cluster(
        ClusterConfig(num_nodes=n, trace=trace, metrics=metrics)
    )

    def wrapper(ctx):
        comm = Communicator(ctx.port, ctx.group, ctx.rank)
        result = yield from program(comm)
        return result

    return run_on_group(cluster, wrapper, max_events=10_000_000), cluster


class TestScheduleCacheUnit:
    def test_miss_then_hits(self):
        cache = ScheduleCache()
        sig = schedule_signature("ibarrier", 4, 0)
        first = cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        second = cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        assert first is second  # the very same object, not a recompile
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "compiles": 1, "invalidations": 0,
        }
        assert len(cache) == 1

    def test_signature_mismatch_rejected(self):
        cache = ScheduleCache()
        sig = schedule_signature("ibarrier", 8, 0)
        with pytest.raises(ValueError, match="compiler produced signature"):
            cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))

    def test_invalidate_clears_and_bumps_epoch(self):
        cache = ScheduleCache()
        sig = schedule_signature("ibarrier", 4, 0)
        cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        assert cache.epoch == 0
        cache.invalidate()
        assert len(cache) == 0
        assert cache.epoch == 1
        cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        assert cache.stats.compiles == 2  # post-invalidation recompile

    def test_disabled_cache_compiles_every_time(self):
        cache = ScheduleCache(enabled=False)
        sig = schedule_signature("ibarrier", 4, 0)
        a = cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        b = cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        assert a is not b
        assert cache.stats.hits == 0
        assert cache.stats.compiles == 2
        assert len(cache) == 0

    def test_metrics_registry_counters(self):
        class _Sim:
            now = 0.0
        registry = MetricsRegistry(_Sim(), enabled=True)
        cache = ScheduleCache(metrics=registry)
        sig = schedule_signature("ibarrier", 4, 0)
        cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        cache.get_or_compile(sig, lambda: compile_ibarrier(4, 0))
        cache.invalidate()
        snap = registry.snapshot()
        assert snap["nbc.cache.hits"] == 1
        assert snap["nbc.cache.misses"] == 1
        assert snap["nbc.cache.compiles"] == 1
        assert snap["nbc.cache.invalidations"] == 1
        assert snap["nbc.cache.entries"] == 0


class TestWarmCacheZeroCompiles:
    def test_repeated_collectives_compile_once(self):
        """The acceptance criterion: warm-cache calls compile zero
        schedules, asserted via the live cluster metrics registry."""

        def program(comm):
            for _ in range(6):
                request = yield from comm.ibarrier()
                yield from request.wait()
            return comm.nbc.cache.stats.as_dict()

        results, cluster = run_mpi(program, n=4, metrics=True)
        for stats in results:
            assert stats["compiles"] == 1
            assert stats["hits"] == 5
        snap = cluster.metrics.snapshot()
        # 4 ranks x 1 compile; 4 ranks x 5 warm calls; the entries
        # gauge totals every rank's one cached schedule.
        assert snap["nbc.cache.compiles"] == 4
        assert snap["nbc.cache.hits"] == 20
        assert snap["nbc.cache.entries"] == 4

    def test_distinct_collectives_get_distinct_entries(self):
        def program(comm):
            r1 = yield from comm.ibarrier()
            yield from r1.wait()
            r2 = yield from comm.iallreduce(comm.rank, op="sum")
            yield from r2.wait()
            r3 = yield from comm.iallreduce(comm.rank, op="max")
            yield from r3.wait()
            return len(comm.nbc.cache)

        results, _ = run_mpi(program, n=4)
        assert all(entries == 3 for entries in results)


class TestBitIdenticalTraces:
    def test_warm_hits_match_cold_compiles(self):
        """Same program, cache enabled vs pass-through (compile every
        call): the event traces are bit-identical -- caching changes
        host wall-clock work only, never the simulation."""

        def make_program(enabled):
            def program(comm):
                if not enabled:
                    comm._nbc = ProgressEngine(
                        comm, cache=ScheduleCache(enabled=enabled)
                    )
                for _ in range(4):
                    request = yield from comm.ibarrier()
                    yield from request.wait()
                req = yield from comm.iallreduce(comm.rank + 1, op="sum")
                result = yield from req.wait()
                return result
            return program

        (res_warm, cl_warm) = run_mpi(make_program(True), n=5, trace=True)
        (res_cold, cl_cold) = run_mpi(make_program(False), n=5, trace=True)
        assert res_warm == res_cold == [15] * 5
        assert cl_warm.sim.now == cl_cold.sim.now
        assert cl_warm.sim.events_executed == cl_cold.sim.events_executed
        warm_events = [
            (e.time, e.category, e.label) for e in cl_warm.tracer.events
        ]
        cold_events = [
            (e.time, e.category, e.label) for e in cl_cold.tracer.events
        ]
        assert warm_events == cold_events


class TestReconfiguration:
    def test_reconfigure_invalidates_cache(self):
        def program(comm):
            request = yield from comm.ibarrier()
            yield from request.wait()
            before = dict(comm.nbc.cache.stats.as_dict())
            # Collectively rotate ranks: everyone moves one slot over.
            group = comm.group[1:] + comm.group[:1]
            comm.reconfigure(group, (comm.rank - 1) % comm.size)
            request = yield from comm.ibarrier()
            yield from request.wait()
            return before, comm.nbc.cache.stats.as_dict(), comm.nbc.cache.epoch

        results, _ = run_mpi(program, n=4)
        for before, after, epoch in results:
            assert before["invalidations"] == 0
            assert after["invalidations"] == 1
            assert after["compiles"] == 2  # recompiled after the reshape
            assert epoch == 1

    def test_reconfigure_refused_with_outstanding_requests(self):
        def program(comm):
            request = yield from comm.ibarrier()
            try:
                comm.reconfigure(comm.group, comm.rank)
            except RuntimeError as exc:
                error = str(exc)
            else:
                error = None
            yield from request.wait()
            return error

        results, _ = run_mpi(program, n=4)
        assert all(r and "outstanding" in r for r in results)

    def test_reconfigure_validates_endpoint(self):
        def program(comm):
            yield from comm.barrier()
            try:
                # Swap ranks without moving ports: endpoint mismatch.
                comm.reconfigure(comm.group, (comm.rank + 1) % comm.size)
            except ValueError:
                return "rejected"
            return "accepted"

        results, _ = run_mpi(program, n=4)
        assert results == ["rejected"] * 4

    def test_reconfigure_before_first_collective_is_fine(self):
        def program(comm):
            comm.reconfigure(comm.group, comm.rank)  # no engine built yet
            request = yield from comm.ibarrier()
            yield from request.wait()
            return True

        results, _ = run_mpi(program, n=4)
        assert all(results)
