"""Wall-clock gates: what the simulator itself costs to run.

Every test here asserts a bound on real seconds, so it depends on the
machine and its load.  All carry the ``wallclock`` marker: the default
test run deselects them, and CI runs them alone with
``pytest benchmarks/ -m wallclock``.  The gates:

* disabled metrics, disabled telemetry and the always-on flight ring
  each cost < 5%;
* the two-tier scheduler dispatches >= 5x the frozen single-heap
  engine's events/sec on the loaded-fabric workload;
* a ``--jobs 4`` Figure-5 campaign runs >= 2x faster than serial
  (skipped below 4 CPUs).
"""

import gc
import heapq
import os
import random
import statistics
import time

import pytest

from repro.analysis.calibration import LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM
from repro.analysis.experiments import measure_barrier
from repro.analysis.figure5 import figure5_spec
from repro.campaign import run_campaign
from repro.sim.engine import Simulator


def _noop(*args) -> None:
    pass


class _FrozenHandle:
    """Event handle of the frozen pre-rewrite engine (see below)."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(self, time, priority, seq, callback, args):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.callback = _noop
        self.args = ()

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq,
        )


class _FrozenPrePRSimulator:
    """The single-heap engine as it existed before the two-tier rewrite.

    A verbatim, self-contained copy of the old hot path (one binary heap,
    Python ``__lt__`` comparisons, lazy cancellation paying a heap pop
    per dead entry, no metrics/profiling hooks).  It is frozen here --
    NOT a subclass of the live engine -- so the speedup gate and the
    instrumentation-overhead bound below keep measuring against the real
    pre-rewrite baseline no matter how the live engine evolves.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.events_executed = 0
        self.cancelled_pops = 0
        self._profile = False
        self._stop_requested = False

    def schedule(self, delay, callback, *args, priority=0):
        if delay < 0:
            if delay >= -1e-9:
                delay = 0.0
            else:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time, callback, *args, priority=0):
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._seq += 1
        handle = _FrozenHandle(time, priority, self._seq, callback, tuple(args))
        heapq.heappush(self._heap, handle)
        return handle

    # The old engine had no timer wheel: timers were plain events.
    schedule_timer = schedule

    def step(self):
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self.cancelled_pops += 1
                continue
            if handle.time < self.now:  # pragma: no cover - defensive
                raise RuntimeError("event heap corrupted: time went backwards")
            self.now = handle.time
            self.events_executed += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until=None):
        while self._heap and not self._stop_requested:
            nxt = self._heap[0]
            if nxt.cancelled:
                heapq.heappop(self._heap)
                self.cancelled_pops += 1
                continue
            if until is not None and nxt.time > until:
                break
            self.step()
        return self.now


@pytest.mark.wallclock
class TestMetricsOverhead:
    def test_disabled_metrics_under_5_percent_overhead(self):
        """Instrumented dispatch must stay within 5% of the frozen loop.

        The observability layer's contract is "disabled means free": with
        ``metrics_enabled=False`` (the default) the fully-hooked engine
        may not dispatch more than 5% slower than the frozen pre-rewrite,
        pre-observability loop, which carries no instrumentation at all.
        (Since the two-tier rewrite the live engine is in fact *faster*
        than the frozen loop, so this doubles as an absolute regression
        tripwire.)  Best-of-N interleaved minima, so scheduler noise
        cancels rather than accumulates.
        """
        count = 30_000

        def drive(sim_class) -> float:
            sim = sim_class()

            def tick(i):
                if i < count:
                    sim.schedule(1.0, tick, i + 1)

            sim.schedule(0.0, tick, 0)
            t0 = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - t0
            assert sim.events_executed == count + 1
            return elapsed

        baseline = instrumented = float("inf")
        for _ in range(9):
            baseline = min(baseline, drive(_FrozenPrePRSimulator))
            instrumented = min(instrumented, drive(Simulator))

        overhead = instrumented / baseline - 1.0
        assert overhead < 0.05, (
            f"disabled-metrics dispatch is {overhead:.1%} slower than the "
            f"frozen pre-rewrite loop (limit 5%)"
        )


@pytest.mark.wallclock
class TestSchedulerRewriteSpeedup:
    """The two-tier + timer-wheel rewrite's headline gate: >= 5x events/sec
    on the ROADMAP's loaded-fabric scenario, versus the frozen engine."""

    NODES = 1024
    WINDOW = 8  # GM-style send window: 8 outstanding retransmit timers
    TIMEOUT_US = 250.0
    EVENTS = 60_000

    @classmethod
    def _loaded_fabric_eps(cls, sim_class) -> float:
        """1024 NICs tick ~1us apart; each tick re-arms the node's send
        window of 8 retransmit timers (cancelling the previous 8), the
        reliability-layer pattern under full fabric load.  Timers park
        100x past the tick cadence, so virtually all are cancelled --
        the old engine pays a heap push *and* a dead-entry pop for every
        one; the wheel reclaims them without touching a queue.

        GC is paused inside the timed region for BOTH engines (the
        ``timeit`` convention) so the gate measures scheduler cost, not
        collector scheduling jitter on a shared CI box.
        """
        sim = sim_class()
        rng = random.Random(42)
        state = {"left": cls.EVENTS}
        windows = [[] for _ in range(cls.NODES)]
        arm = sim.schedule_timer
        # The frozen engine cancels through its handles.
        cancel = getattr(sim, "cancel", _FrozenHandle.cancel)

        def tick(n, cadence):
            window = windows[n]
            for h in window:
                cancel(h)
            window.clear()
            if state["left"] > 0:
                state["left"] -= 1
                for k in range(cls.WINDOW):
                    window.append(
                        arm(cls.TIMEOUT_US * (1.0 + 0.125 * k), _never)
                    )
                sim.schedule(cadence, tick, n, cadence)

        def _never():  # pragma: no cover - all timers are cancelled
            raise AssertionError("cancelled retransmit timer fired")

        for n in range(cls.NODES):
            sim.schedule(rng.random() * 10.0, tick, n, 0.9 + 0.0002 * n)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        return sim.events_executed / elapsed

    def test_loaded_fabric_five_x_speedup(self):
        frozen = rewritten = 0.0
        for _ in range(3):  # interleaved best-of, noise cancels
            frozen = max(frozen, self._loaded_fabric_eps(_FrozenPrePRSimulator))
            rewritten = max(rewritten, self._loaded_fabric_eps(Simulator))

        speedup = rewritten / frozen
        assert speedup >= 5.0, (
            f"loaded-fabric dispatch is only {speedup:.2f}x the frozen "
            f"single-heap engine ({rewritten:,.0f} vs {frozen:,.0f} "
            f"events/sec); the rewrite gate is 5x"
        )


def _figure5_sweep_cpu_s() -> float:
    """Process CPU seconds of the Figure-5 unit of work: one 16-node PE
    measurement, NIC-based and host-based.  CPU time, as perfbench
    measures, so time the process spends descheduled does not count."""
    t0 = time.process_time()
    for nic_based in (True, False):
        measure_barrier(
            LANAI_4_3_SYSTEM.cluster_config(16),
            nic_based=nic_based, algorithm="pe",
            repetitions=3, warmup=1,
        )
    return time.process_time() - t0


def _paired_overhead(install_a, install_b, rounds: int = 151) -> float:
    """How much more CPU time :func:`_figure5_sweep_cpu_s` takes under
    configuration a than under b (0.05 is 5%), each switched on by
    calling its ``install_*``.

    Each round times one sweep per side back to back, the side that runs
    first alternating from round to round, and the result is the median
    of the rounds' ratios.  Both sweeps of a round see the same machine:
    on a shared box a sweep's CPU time swings by half within seconds,
    which moves the best-of-N of each side independently by more than
    the bound, while it moves only the few ratios of rounds that
    straddle a swing, and the median drops those.

    The median's own spread shrinks with the number of rounds.  One
    sweep is some 40 ms of CPU, and one round's ratio scatters by 11-18%
    (standard deviation over 200-400 rounds on a shared 2-CPU box), so
    the median of 9 rounds read 5.2% for disabled telemetry, whose true
    cost is nil (200 rounds: median -0.1%), and failed the flight-ring
    gate in about 1 run in 4 (its true cost is about 3%: 400 rounds,
    median 3.0%).  Resampling those 400 rounds, the median of 151 stays
    under 4.2% in 95% of runs.
    """
    _figure5_sweep_cpu_s()  # warm imports and caches outside the timed region
    installs = (install_a, install_b)
    ratios = []
    for r in range(rounds):
        times = [0.0, 0.0]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            installs[side]()
            times[side] = _figure5_sweep_cpu_s()
        ratios.append(times[0] / times[1])
    return statistics.median(ratios) - 1.0


@pytest.mark.wallclock
class TestTelemetryOverhead:
    def test_disabled_telemetry_under_5_percent_on_figure5_work(self):
        """Telemetry off (the default) must cost <5% on the Figure-5
        unit of work.  With metrics and telemetry off the disabled path
        is one ``sim.probing`` test at each declaring component plus the
        ``Telemetry`` null object's ``start()``; no component calls
        ``Simulator.probe``.  The comparison baseline stubs out
        ``start()`` only (see :func:`_paired_overhead`).
        """
        import repro.telemetry.sampler as sampler

        original_start = sampler.Telemetry.start

        def stock():
            sampler.Telemetry.start = original_start

        def stubbed():
            sampler.Telemetry.start = lambda self: None

        try:
            overhead = _paired_overhead(stock, stubbed)
        finally:
            stock()

        assert overhead < 0.05, (
            f"disabled telemetry costs {overhead:.1%} CPU time on the "
            f"Figure-5 measurement (limit 5%)"
        )


@pytest.mark.wallclock
class TestFlightRecorderOverhead:
    def test_always_on_ring_under_5_percent_on_figure5_work(self):
        """The flight recorder is on by default, so its ring append (one
        per trace-site call, tracing off) must cost <5% on the Figure-5
        unit of work.  Compared against ``flight_size=0`` (see
        :func:`_paired_overhead`).
        """
        import repro.sim.tracing as tracing

        original_init = tracing.Tracer.__init__

        def no_flight_init(self, sim, enabled=False, categories=None,
                           flight_size=0):
            original_init(self, sim, enabled=enabled,
                          categories=categories, flight_size=0)

        def with_ring():
            tracing.Tracer.__init__ = original_init

        def without_ring():
            tracing.Tracer.__init__ = no_flight_init

        try:
            overhead = _paired_overhead(with_ring, without_ring)
        finally:
            with_ring()

        assert overhead < 0.05, (
            f"always-on flight ring costs {overhead:.1%} CPU time on the "
            f"Figure-5 measurement (limit 5%)"
        )


@pytest.mark.wallclock
class TestCampaignParallel:
    def test_parallel_speedup_on_multicore(self):
        """The LANai 4.3 + 7.2 Figure-5 sweeps at ``jobs=4`` run >= 2x
        faster than serial, and bit-identical.  Needs real cores."""
        cpus = os.cpu_count() or 1
        jobs = (
            figure5_spec(LANAI_4_3_SYSTEM, repetitions=2, warmup=1).compile()
            + figure5_spec(LANAI_7_2_SYSTEM, repetitions=2, warmup=1).compile()
        )
        t0 = time.perf_counter()
        serial = run_campaign(jobs, name="fig5-serial")
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_campaign(jobs, jobs=4, name="fig5-parallel")
        t_parallel = time.perf_counter() - t0
        assert serial.failed == 0 and parallel.failed == 0
        assert [r.value for r in serial.results] == [
            r.value for r in parallel.results
        ], "parallel campaign must be bit-identical to serial"
        speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
        if cpus < 4:
            pytest.skip(
                f"speedup assertion needs >= 4 CPUs (have {cpus}); "
                f"measured {speedup:.2f}x on {len(jobs)} jobs"
            )
        assert speedup >= 2.0, (
            f"--jobs 4 only {speedup:.2f}x faster than serial "
            f"({t_serial:.3f} s vs {t_parallel:.3f} s, {len(jobs)} jobs)"
        )
