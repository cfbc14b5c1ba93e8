"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload fig5 --seed 0 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``fig5``, ``fabric64``, ``lossy16``
and ``nbc16``.  Everything runs in this one process, without a worker
pool.  A human-readable report goes to standard output; its last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times units of the workload until ``--seconds`` have
passed and reports the end-to-end metrics (medians over units).
``--trace 1`` runs one unit untraced and one traced and reports the
per-layer metrics.  ``--out DIR`` additionally writes the full result
(with the run manifest) and the traced run's spans under ``DIR``; without
it the benchmark writes no file.

The command exits non-zero when a simulated result is wrong or a
barrier failed, and when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Raw spans kept in memory (and written with ``--out``) per traced run.
KEEP_SPANS = 200_000

#: CPU seconds :func:`reference_loop` takes on a quiet 2-CPU x86-64
#: machine with CPython 3.11.  End-to-end host times are reported in
#: these units.
REFERENCE_S = 0.2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the result file and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the smoke test); pinned results are not checked")
    return parser.parse_args(argv)


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload_names) -> dict:
    """What another run must match to be comparable with this one."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "seed": args.seed,
        "workload": args.workload,
        "workloads": list(workload_names),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop(processes: int = 10_000, steps: int = 10) -> float:
    """CPU seconds of a fixed pure-Python event loop that uses no
    ``repro`` code: many small generators resumed in heap order, as the
    simulator does.  Its time tracks how fast the (shared) machine runs
    Python right now; a working set of this size tracks the simulator
    better than a loop that fits in cache."""
    def proc(i):
        state = {}
        for k in range(steps):
            state[k] = (i, k)
            yield k

    gc.collect()
    start = time.process_time()
    procs = [proc(i) for i in range(processes)]
    queue = [(0.0, i) for i in range(processes)]
    while queue:
        now, i = heapq.heappop(queue)
        if next(procs[i], None) is not None:
            heapq.heappush(queue, (now + 1.0 + i % 7, i))
    return time.process_time() - start


def run_unit(workload, args, log):
    """One unit: ``(UnitResult, wall_s, cpu_s)``; ``log`` is reset first
    and holds the unit's cluster totals after.

    Every unit starts from a freshly collected heap, so the garbage
    collector pauses at the same points in every unit instead of
    wherever the previous unit left its allocation counters.
    """
    log.clear()
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    unit = workload.run_unit(args.seed, args.smoke, log)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    log.retire()
    return unit, wall, cpu


def timed_run(workload, args):
    """Units until ``--seconds`` of wall time are spent; end-to-end
    metrics (medians over units).

    Host time is this process's CPU time (the simulator is one thread),
    expressed in *reference seconds*: scaled by ``REFERENCE_S`` over the
    mean time :func:`reference_loop` took just before and just after
    that unit.  On a shared machine the speed of every process drifts by
    tens of percent from minute to minute; the scale cancels most of
    that drift, and a change to ``repro`` cannot move it.  Raw CPU
    seconds and the loop's times stay in the unit table.
    """
    from tracing import ClusterLog, Patches, SpanRecorder, install_setup_hooks

    rec, patches, log = SpanRecorder(clock=time.process_time), Patches(), ClusterLog()
    install_setup_hooks(rec, patches, log)
    units, table, refs = [], [], [reference_loop()]
    start = time.perf_counter()
    try:
        while True:
            rec.reset()
            unit, wall, cpu = run_unit(workload, args, log)
            setup = rec.setup_s()
            refs.append(reference_loop())
            units.append(unit)
            table.append({"wall_s": wall, "cpu_s": cpu, "setup_s": setup,
                          "reference_s": (refs[-2] + refs[-1]) / 2,
                          "barriers": unit.barriers, "completions": unit.completions,
                          "failed": unit.failed})
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        patches.undo()
    rates, setups = [], []
    for row in table:
        scale = REFERENCE_S / row["reference_s"]  # reference seconds per CPU second
        rates.append(row["completions"] / ((row["cpu_s"] - row["setup_s"]) * scale))
        setups.append(row["setup_s"] * scale)
    metrics = {
        "barriers_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return units, metrics, table, []


def traced_run(workload, args):
    """One untraced and one traced unit; per-layer metrics.  (``main``
    checks that both simulated the same results.)"""
    import tracing
    from repro.analysis.critical_path import traced_barrier_run

    rec, patches, log = tracing.SpanRecorder(), tracing.Patches(), tracing.ClusterLog()
    tracing.install_setup_hooks(rec, patches, log)
    try:
        reference, ref_wall, _ = run_unit(workload, args, log)
        ref_events = log.counters["events"]
        ref_busy = ref_wall - rec.setup_s()
    finally:
        patches.undo()

    rec = tracing.SpanRecorder(keep=KEEP_SPANS)
    tracing.install_setup_hooks(rec, patches, log, profile=True)
    tracing.install_layer_hooks(rec, patches)
    try:
        traced, wall, _ = run_unit(workload, args, log)
    finally:
        patches.undo()
    layers = tracing.attribute(rec, log.profile)
    resumes = tracing.dispatch_counts(log.profile)
    counters = log.counters

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    calls = rec.calls
    put("sim.events", counters["events"], "count")
    put("sim.host_us_per_event", 1e6 * ref_busy / max(ref_events, 1), "us")
    put("sim.dispatch_self_s", layers.pop("sim.dispatch"), "s")
    put("sim.primitives_self_s", layers.pop("sim.primitives", 0.0), "s")
    put("sim.cancelled_pops", counters["cancelled_pops"], "count")
    put("sim.timers_reclaimed", counters["timers_reclaimed"], "count")
    put("host.self_s", layers.pop("host", 0.0), "s")
    put("cluster.build_s", rec.total_s.get("cluster.build", 0.0), "s")
    put("cluster.open_port_s", rec.total_s.get("cluster.open_port", 0.0), "s")
    put("cluster.self_s", sum(layers.pop(k, 0.0) for k in (
        "cluster.build", "cluster.spawn", "cluster.open_port")), "s")
    put("campaign.expand_s", rec.total_s.get("campaign.expand", 0.0), "s")
    put("campaign.self_s", layers.pop("campaign", 0.0) + layers.pop("campaign.expand", 0.0), "s")
    put("campaign.jobs", calls.get("campaign.jobs", 0), "count")
    for side in ("nic", "host"):
        put(f"core.{side}.self_s", layers.pop(f"core.{side}", 0.0), "s")
        put(f"core.{side}.ops", calls.get(f"core.{side}", 0), "count")
    put("gm.send_calls", calls.get("gm.send", 0), "count")
    put("gm.receive_calls", calls.get("gm.receive", 0), "count")
    put("gm.self_s", layers.pop("gm", 0.0), "s")
    for machine in ("sdma", "send", "recv", "rdma"):
        layer = f"nic.mcp.{machine}"
        put(f"{layer}.self_s", layers.pop(layer, 0.0), "s")
        put(f"{layer}.resumes", resumes.get(layer, 0), "count")
    put("nic.self_s", layers.pop("nic", 0.0), "s")
    put("nic.lanai_busy_us", counters["lanai_busy_us"], "sim_us")
    put("nic.dma.transfers", counters["dma_transfers"], "count")
    put("nic.connection.retransmits", counters["retransmits"], "count")
    put("nic.connection.acks", counters["acks"], "count")
    put("nic.connection.duplicates_dropped", counters["duplicates_dropped"], "count")
    put("nic.connection.useful_ratio", log.useful_ratio(), "ratio")
    network_s = layers.pop("network", 0.0)
    put("network.packets", counters["packets"], "count")
    put("network.host_us_per_packet", 1e6 * network_s / max(counters["packets"], 1), "us")
    put("network.self_s", network_s, "s")
    put("faults.drops", counters["drops"], "count")
    put("faults.self_s", layers.pop("faults", 0.0), "s")
    overlap = traced.outputs.get("overlap") or {}
    cache = overlap.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    put("mpi.nbc.cache_hit_ratio", cache.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    put("mpi.nbc.progress_calls", calls.get("mpi.nbc.progress", 0), "count")
    put("mpi.nbc.self_s", layers.pop("mpi.nbc", 0.0), "s")
    put("mpi.nbc.overlap_pct", overlap.get("overlap_pct", 0.0), "%")

    config = workload.cp_config(args.seed, args.smoke)
    _cluster, path, _e2e = traced_barrier_run(config.num_nodes, algorithm="pe", config=config)
    segments = path.by_segment()
    for segment in ("Host", "Send", "SDMA", "Xmit", "Network", "Recv", "RDMA", "HRecv", "NIC"):
        put(f"cp.{segment}_us", segments.get(segment, 0.0), "sim_us")
    put("cp.total_us", path.total_us, "sim_us")

    leftover = sum(layers.values())  # layers no metric above names
    put("trace.other_self_s", leftover, "s")
    attributed = sum(v for name, (v, _) in metrics.items() if name.endswith("self_s"))
    put("trace.wall_s", wall, "s")
    put("trace.unattributed_s", wall - attributed, "s")
    put("trace.overhead_pct", 100.0 * (wall - ref_wall) / ref_wall, "%")
    put("trace.spans", rec.span_count, "count")

    table = [{"wall_s": ref_wall, "traced": False}, {"wall_s": wall, "traced": True}]
    return [reference, traced], metrics, table, rec.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    # Import the simulator from this checkout's sources; write no
    # bytecode caches into it.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails here, before any output, without src/)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())

    run = traced_run if args.trace else timed_run
    units, metrics, table, spans = run(workload, args)
    first = units[0].outputs
    errors = []
    if not args.trace and not any(u.failed for u in units):
        latency, factor = workload.headline(first)
        metrics["sim_latency_us"] = (latency, "sim_us")
        metrics["nic_factor"] = (factor, "ratio")
    for index, unit in enumerate(units):
        errors.extend(unit.errors)
        if unit.outputs != first:
            errors.append(f"unit {index} simulated different results than unit 0")
    errors.extend(workload.check(first, expected, args.seed, args.smoke))
    attempted = sum(u.barriers for u in units)
    failed = sum(u.failed for u in units)
    if errors and not failed:
        failed = attempted  # wrong simulated results: no barrier counts as right
    anchors = {} if failed else workload.anchors(first)

    run_manifest = manifest(args, WORKLOADS)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("manifest: " + json.dumps(run_manifest, sort_keys=True))
    print(f"units: {len(table)}")
    for row in table:
        print("  " + json.dumps(row, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} ratio"
          f"  ({failed} of {attempted} barriers)")
    for label, row in anchors.items():
        print(f"  anchor {label:<29} {row['simulated']:>10.4f} vs paper {row['paper']}"
              f"  ({row['error_pct']:+.1f}%)")
    for error in errors:
        print(f"  ERROR {error}")

    correct = not errors and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        full = dict(result, manifest=run_manifest, units=table, errors=errors,
                    anchors=anchors, outputs=first)
        (args.out / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
        if spans:
            with open(args.out / f"{stem}.spans.jsonl", "w") as fh:
                for span_id, parent, layer, start, end in spans:
                    fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                         "start": start, "end": end}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
