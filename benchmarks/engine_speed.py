"""Engine events/sec micro-bench -- records the BENCH_engine.json trajectory.

Measures the raw dispatch rate of the DES kernel plus the three hot
composite paths (process/store machinery, retransmit-timer churn, a full
16-node barrier measurement), and appends one stage entry to
``BENCH_engine.json`` so the speed trajectory of the engine is tracked
across PRs::

    PYTHONPATH=src python benchmarks/engine_speed.py --stage "pr7-two-tier"

Numbers are wall-clock (best of N interleaved rounds, minimum, so
scheduler noise cancels), except the ``*_python_calls`` counts: the
Python function calls (``sys.setprofile`` "call" events, generator
resumes included) of one warm perfbench-sized unit -- both Figure-5
sweeps, and the 64-node NIC-PE and host-PE loops -- which are exact and
repeat from run to run on one interpreter.  Everything else in
``benchmarks/`` reports *simulated* microseconds.  Each stage carries a
``machine`` key, and the regression sentinel judges a stage only
against earlier stages recorded on the same kind of machine: wall-clock
rates within a noise band, call counts exactly (any rise is flagged).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.sim.engine import Simulator
from repro.sim.primitives import Store, Timeout
from repro.sim.process import Process

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def machine_key() -> str:
    """What a stage's wall-clock numbers depend on besides the code:
    Python implementation and version, architecture, CPU count."""
    return (
        f"{platform.python_implementation()}-{platform.python_version()}"
        f"-{platform.machine()}-{os.cpu_count()}cpu"
    )


def bench_raw_dispatch(count: int = 100_000) -> float:
    """Self-rescheduling tick chain: pure schedule+dispatch cost."""
    sim = Simulator()

    def tick(i):
        if i < count:
            sim.schedule(1.0, tick, i + 1)

    sim.schedule(0.0, tick, 0)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.events_executed == count + 1
    return sim.events_executed / elapsed


def bench_producer_consumer(items: int = 20_000) -> float:
    """Process/Store machinery throughput: a Timeout and a put per
    item, and a blocking get the process itself is the record of."""
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(items):
            yield Timeout(0.1)
            store.put(i)

    def consumer():
        total = 0
        for _ in range(items):
            total += yield store.get()
        return total

    Process(sim, producer())
    c = Process(sim, consumer())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert c.result == sum(range(items))
    return sim.events_executed / elapsed


def bench_timer_churn(count: int = 30_000) -> float:
    """Retransmit-style timers: armed far ahead, cancelled before firing.

    Every executed event re-arms four 100--400us timers and cancels the
    previous batch, so the engine sees ~4 cancellations per dispatch --
    the pattern the reliability layer produces under load.
    """
    sim = Simulator()
    timers: list = []
    schedule_timer = getattr(sim, "schedule_timer", sim.schedule)

    def tick(i):
        for h in timers:
            sim.cancel(h)
        timers.clear()
        if i < count:
            for k in range(4):
                timers.append(
                    schedule_timer(100.0 + 100.0 * k, _never, i)
                )
            sim.schedule(1.0, tick, i + 1)

    def _never(_i):  # pragma: no cover - timers are always cancelled
        raise AssertionError("cancelled timer fired")

    sim.schedule(0.0, tick, 0)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.events_executed == count + 1
    return sim.events_executed / elapsed


def bench_loaded_fabric(
    nodes: int = 1024, events_target: int = 60_000, window: int = 8,
    tmo: float = 250.0,
) -> float:
    """ROADMAP's loaded-fabric scenario: 1024 NICs under full load.

    Every tick re-arms the node's GM-style send window of 8 retransmit
    timers and cancels the previous 8 -- the workload the timer wheel
    exists for.  This is also the 5x speedup-gate workload in
    ``test_wallclock.py`` (which additionally runs it on
    the frozen pre-rewrite engine for the before/after ratio).
    """
    import gc
    import random

    sim = Simulator()
    rng = random.Random(42)
    state = {"left": events_target}
    windows: list = [[] for _ in range(nodes)]
    arm = sim.schedule_timer

    def tick(n, cadence):
        mine = windows[n]
        for h in mine:
            sim.cancel(h)
        mine.clear()
        if state["left"] > 0:
            state["left"] -= 1
            for k in range(window):
                mine.append(arm(tmo * (1.0 + 0.125 * k), _never))
            sim.schedule(cadence, tick, n, cadence)

    def _never():  # pragma: no cover - all timers are cancelled
        raise AssertionError("cancelled retransmit timer fired")

    for n in range(nodes):
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


def bench_barrier_wall(repetitions: int = 5) -> dict:
    """Wall cost of the Figure-5 unit of work (16-node NIC-PE)."""
    from repro.analysis.calibration import LANAI_4_3_SYSTEM
    from repro.analysis.experiments import measure_barrier

    t0 = time.perf_counter()
    m = measure_barrier(
        LANAI_4_3_SYSTEM.cluster_config(16),
        nic_based=True,
        algorithm="pe",
        repetitions=repetitions,
        warmup=1,
    )
    elapsed = time.perf_counter() - t0
    return {"wall_s": elapsed, "mean_latency_us": m.mean_latency_us}


def fig5_unit() -> None:
    """perfbench's ``fig5`` unit: both testbeds' full Figure-5 sweeps."""
    from repro.analysis.calibration import LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM
    from repro.analysis.figure5 import run_figure5

    for system in (LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM):
        run_figure5(system)


def fabric64_unit() -> None:
    """perfbench's ``fabric64`` unit: 64 nodes on the switch tree, 2 + 10
    NIC-PE barriers, then 1 + 4 host-PE barriers."""
    from repro.analysis.calibration import LANAI_4_3_SYSTEM
    from repro.analysis.experiments import measure_barrier

    config = LANAI_4_3_SYSTEM.cluster_config(64)
    measure_barrier(config, nic_based=True, repetitions=10, warmup=2)
    measure_barrier(config, nic_based=False, repetitions=4, warmup=1)


def count_python_calls(unit) -> int:
    """Python function calls of one warm run of ``unit()``: every
    ``sys.setprofile`` "call" event (a generator resume is one too).
    The first run, uncounted, fills import and per-module caches."""
    unit()
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        unit()
    finally:
        sys.setprofile(None)
    return calls


def run_all(rounds: int = 5) -> dict:
    best: dict = {}
    barrier = None
    for _ in range(rounds):
        best["raw_dispatch_eps"] = max(
            best.get("raw_dispatch_eps", 0.0), bench_raw_dispatch()
        )
        best["producer_consumer_eps"] = max(
            best.get("producer_consumer_eps", 0.0), bench_producer_consumer()
        )
        best["timer_churn_eps"] = max(
            best.get("timer_churn_eps", 0.0), bench_timer_churn()
        )
        best["loaded_fabric_eps"] = max(
            best.get("loaded_fabric_eps", 0.0), bench_loaded_fabric()
        )
        b = bench_barrier_wall()
        if barrier is None or b["wall_s"] < barrier["wall_s"]:
            barrier = b
    best["barrier16_wall_s"] = barrier["wall_s"]
    best["barrier16_mean_latency_us"] = barrier["mean_latency_us"]
    best["fig5_python_calls"] = count_python_calls(fig5_unit)
    best["fabric64_python_calls"] = count_python_calls(fabric64_unit)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stage", required=True, help="trajectory label")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, default=BENCH_PATH)
    args = parser.parse_args()

    results = run_all(rounds=args.rounds)
    entry = {
        "stage": args.stage,
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "machine": machine_key(),
        **{k: round(v, 3) for k, v in results.items()},
    }

    doc = {"benchmark": "engine_speed", "trajectory": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["trajectory"] = [e for e in doc["trajectory"] if e["stage"] != args.stage]
    doc["trajectory"].append(entry)
    first = doc["trajectory"][0]
    if len(doc["trajectory"]) > 1 and first.get("raw_dispatch_eps"):
        doc["speedup_vs_first"] = {
            k: round(entry[k] / first[k], 2)
            for k in (
                "raw_dispatch_eps",
                "producer_consumer_eps",
                "timer_churn_eps",
                "loaded_fabric_eps",
            )
            if first.get(k)
        }
        doc["speedup_vs_first"]["barrier16_wall_s"] = round(
            first["barrier16_wall_s"] / entry["barrier16_wall_s"], 2
        )
    args.out.write_text(json.dumps(doc, indent=2) + "\n")

    print(f"stage {entry['stage']!r}:")
    for key, value in results.items():
        print(f"  {key:28s} {value:,.1f}")
    print(f"appended to {args.out}")


if __name__ == "__main__":
    main()
