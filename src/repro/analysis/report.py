"""Regenerate the paper's evaluation as a report.

``python -m repro.analysis.report [--quick] [--out DIR]`` reruns the
Figure 5 sweeps on both simulated testbeds, prints the
paper-vs-measured tables, and (with ``--out``) writes ``figure5.csv`` and
``report.md`` so results can be diffed across revisions.

The sweeps are submitted through the :mod:`repro.campaign` subsystem:
``--jobs N`` fans the independent measurements out over N worker
processes (bit-identical to the serial run), ``--cache-dir DIR`` reuses
content-addressed cached results (an unchanged sweep re-simulates
nothing), ``--json OUT`` additionally writes the paper-vs-measured
tables as machine-readable JSON, and every sweep run leaves a
consolidated ``BENCH_campaign.json`` trajectory (in ``--out`` when
given, else the working directory).  See ``docs/campaigns.md``.

``python -m repro.analysis.report --observe N [--trace-out FILE]``
instead runs one instrumented N-node dissemination barrier with the
metrics registry live and prints the per-component metrics table (NIC
busy time, link utilization, resend counters); ``--trace-out`` also
writes the run as Chrome trace_event JSON for ``chrome://tracing`` /
Perfetto (see ``docs/observability.md``).

``python -m repro.analysis.report --faults SEED`` and ``--crashes SEED``
run the fault soak (``repro.faults.soak``) in one of its two families.
``--faults`` is the loss family: every barrier algorithm (host and NIC,
both reliability designs) under a fault plan derived from SEED --
seeded packet loss and corruption, a link flap, a switch port stall, a
NIC pause and an ACK-loss burst -- and prints the recovery table
(injected losses, retransmits, duplicate suppressions, alarms).
``--crashes`` is the crash family: every barrier algorithm under a
seeded fail-stop *node crash* at every phase and cluster size, checking
that survivors abort with typed failures, shrink to the agreed smaller
group and resume.  Same seed, same table (see the "Fault soaks" section
of ``docs/reliability.md``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.calibration import (
    LANAI_4_3_SYSTEM,
    LANAI_7_2_SYSTEM,
    SystemCalibration,
)
from repro.analysis.charts import ascii_line_chart
from repro.analysis.experiments import BarrierMeasurement
from repro.analysis.figure5 import (
    BENCH_REPS,
    BENCH_WARMUP,
    QUICK_REPS,
    QUICK_WARMUP,
    VARIANTS,
    run_figure5,
)
from repro.analysis.tables import format_table


def generate_figure5(
    system: SystemCalibration,
    repetitions: int,
    warmup: int,
    jobs: int = 1,
    store=None,
    cache_dir=None,
) -> Dict[str, Dict[int, BarrierMeasurement]]:
    """Run the four-variant sweep over the system's published sizes."""
    sweep, _ = run_figure5(
        system, repetitions=repetitions, warmup=warmup,
        jobs=jobs, store=store, cache_dir=cache_dir,
    )
    return sweep


def figure5_rows(system: SystemCalibration, sweep) -> List[list]:
    """Flatten one system's sweep into CSV/table rows."""
    rows = []
    for n in system.sizes:
        row: List = [system.lanai_model.name, n]
        for variant in VARIANTS:
            m = sweep[variant][n]
            row.append(round(m.mean_latency_us, 2))
        row.append(
            round(
                sweep["host-pe"][n].mean_latency_us
                / sweep["nic-pe"][n].mean_latency_us,
                3,
            )
        )
        row.append(
            round(
                sweep["host-gb"][n].mean_latency_us
                / sweep["nic-gb"][n].mean_latency_us,
                3,
            )
        )
        anchor = system.anchor(n, "nic-pe")
        row.append(anchor.value if anchor else "")
        rows.append(row)
    return rows


HEADERS = [
    "card", "N", "host-pe", "nic-pe", "host-gb", "nic-gb",
    "pe-factor", "gb-factor", "paper-nic-pe",
]


# ----------------------------------------------------------------------
# Observability: metrics table + instrumented runs
# ----------------------------------------------------------------------
def metrics_table(registry, skip_zero: bool = True) -> str:
    """Render a :class:`~repro.sim.metrics.MetricsRegistry` snapshot.

    Uses the same table formatter as the Figure-5 output so benchmark
    scripts can append a metrics section to their reports.
    """
    rows: List[list] = []
    for name, value in registry.rows(skip_zero=skip_zero):
        if isinstance(value, float) and not value.is_integer():
            rows.append([name, round(value, 3)])
        else:
            rows.append([name, int(value)])
    return format_table(["metric", "value"], rows)


def run_observed_barrier(
    num_nodes: int = 16,
    algorithm: str = "dissemination",
    repetitions: int = 4,
    trace_path: Optional[Path] = None,
):
    """Run consecutive NIC barriers with metrics + tracing live.

    Returns the finished cluster; read ``cluster.metrics`` for the
    registry and ``cluster.tracer`` for the event timeline.  With
    ``trace_path`` the timeline is also written as Chrome trace_event
    JSON.
    """
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.cluster.runner import default_group, run_on_group
    from repro.core.barrier import barrier as nic_barrier_op

    config = ClusterConfig(num_nodes=num_nodes, metrics=True, trace=True)
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(repetitions):
            yield from nic_barrier_op(
                ctx.port, ctx.group, ctx.rank, algorithm=algorithm
            )
        return ctx.now

    run_on_group(
        cluster, program, group=default_group(cluster), max_events=20_000_000
    )
    if trace_path is not None:
        cluster.tracer.write_chrome_trace(trace_path)
    return cluster


def render_report(all_rows: List[list]) -> str:
    """Render the markdown report (table + per-card charts)."""
    out = io.StringIO()
    out.write("# Regenerated evaluation (Figure 5)\n\n")
    out.write("Latencies in microseconds; GB at the best swept tree ")
    out.write("dimension; factor = host / NIC (Equation 3).\n\n```\n")
    out.write(format_table(HEADERS, all_rows))
    out.write("\n```\n")
    # One latency chart per card, like the paper's panels.
    for card in dict.fromkeys(row[0] for row in all_rows):
        series: Dict[str, list] = {v: [] for v in VARIANTS}
        for row in all_rows:
            if row[0] != card:
                continue
            n = row[1]
            for i, variant in enumerate(VARIANTS):
                series[variant].append((n, row[2 + i]))
        out.write("\n```\n")
        out.write(
            ascii_line_chart(
                series,
                width=56,
                height=14,
                title=f"{card}: barrier latency vs nodes",
                x_label="nodes",
                y_label="us",
            )
        )
        out.write("\n```\n")
    out.write("\nPaper anchors: NIC-PE(16, LANai 4.3) = 102.14 us ")
    out.write("(x1.78), NIC-GB(16) = 152.27 us (x1.46), ")
    out.write("NIC-PE(8, LANai 7.2) = 49.25 us (x1.83).\n")
    return out.getvalue()


def write_outputs(out_dir: Path, all_rows: List[list]) -> None:
    """Write figure5.csv and report.md into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "figure5.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HEADERS)
        writer.writerows(all_rows)
    (out_dir / "report.md").write_text(render_report(all_rows))


def tables_json(
    systems: List[SystemCalibration],
    sweeps: Dict[str, Dict[str, Dict[int, BarrierMeasurement]]],
) -> dict:
    """The paper-vs-measured tables as a JSON-able document.

    Measurements reuse the campaign ResultStore payload schema
    (:meth:`BarrierMeasurement.to_dict`), so the rows here and the
    cached/BENCH artifacts describe results in the same shape.
    """
    from repro.campaign.serialize import CODE_VERSION

    doc: dict = {"code_version": CODE_VERSION, "systems": []}
    for system in systems:
        sweep = sweeps[system.lanai_model.name]
        rows = []
        for n in system.sizes:
            entry: dict = {"num_nodes": n, "measured": {}, "paper": {}}
            for variant in VARIANTS:
                m = sweep[variant].get(n)
                if m is not None:
                    entry["measured"][variant] = m.to_dict()
            entry["measured"]["factor-pe"] = (
                sweep["host-pe"][n].mean_latency_us
                / sweep["nic-pe"][n].mean_latency_us
            )
            entry["measured"]["factor-gb"] = (
                sweep["host-gb"][n].mean_latency_us
                / sweep["nic-gb"][n].mean_latency_us
            )
            for variant in VARIANTS + ("factor-pe", "factor-gb"):
                anchor = system.anchor(n, variant)
                if anchor is not None:
                    entry["paper"][variant] = {
                        "description": anchor.description,
                        "value": anchor.value,
                        "kind": anchor.kind,
                    }
            rows.append(entry)
        doc["systems"].append(
            {
                "card": system.lanai_model.name,
                "name": system.name,
                "rows": rows,
            }
        )
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (3 instead of 6)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for figure5.csv and report.md")
    parser.add_argument("--system", choices=["4.3", "7.2", "both"],
                        default="both")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="campaign worker processes (1 = inline serial; "
                             "parallel results are bit-identical)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed result cache directory; "
                             "unchanged configs are never re-simulated")
    parser.add_argument("--json", type=Path, default=None, metavar="OUT",
                        help="also write the paper-vs-measured tables as "
                             "machine-readable JSON to this file")
    obs = parser.add_argument_group(
        "observability runs",
        "one-shot instrumented runs (docs/observability.md); pick at most "
        "one mode: --observe, --critical-path, --telemetry or --faults")
    obs.add_argument("--observe", type=int, metavar="N", default=None,
                     help="run one instrumented N-node dissemination "
                          "barrier and print the metrics table")
    obs.add_argument("--critical-path", type=int, metavar="N",
                     default=None,
                     help="run one traced N-node barrier and print its "
                          "critical path: per-hop attribution table and "
                          "per-segment totals")
    obs.add_argument("--telemetry", type=int, metavar="N", default=None,
                     help="run one sampled N-node barrier and print the "
                          "per-round congestion hotspot table "
                          "(repro.analysis.hotspots)")
    obs.add_argument("--sample-us", type=float, default=2.0, metavar="U",
                     help="with --telemetry: sampling period in simulated "
                          "microseconds (default 2.0)")
    obs.add_argument("--telemetry-out", type=Path, default=None,
                     metavar="FILE",
                     help="with --telemetry: write every sampled series as "
                          "JSONL to this file")
    obs.add_argument("--algo", choices=["pe", "dissemination", "gb"],
                     default=None,
                     help="with --critical-path or --telemetry: barrier "
                          "algorithm (defaults: pe for --critical-path, "
                          "dissemination for --telemetry)")
    obs.add_argument("--trace-out", type=Path, default=None,
                     help="with --observe, --critical-path or --telemetry: "
                          "write the run as Chrome trace_event JSON "
                          "(--critical-path adds flow arrows along the "
                          "chain; --telemetry adds counter tracks)")
    obs.add_argument("--faults", type=int, metavar="SEED", default=None,
                     help="run the chaos soak (every barrier algorithm "
                          "under seeded fault injection) and print the "
                          "recovery table")
    obs.add_argument("--crashes", type=int, metavar="SEED", default=None,
                     help="run the crash soak (every barrier algorithm "
                          "under a seeded fail-stop node crash at every "
                          "phase and size) and print the shrink-and-"
                          "resume table")
    parser.add_argument("--nodes", type=int, default=8,
                        help="with --faults: cluster size (default 8)")
    parser.add_argument("--reps", type=int, default=3,
                        help="with --faults: barriers per combination "
                             "(default 3)")
    args = parser.parse_args(argv)

    # -- observability flag validation (one mode, consistent companions) --
    modes = {
        "--observe": args.observe,
        "--critical-path": args.critical_path,
        "--telemetry": args.telemetry,
        "--faults": args.faults,
        "--crashes": args.crashes,
    }
    active = [flag for flag, value in modes.items() if value is not None]
    if len(active) > 1:
        parser.error(f"{' and '.join(active)} are mutually exclusive -- "
                     "pick one observability mode per run")
    if args.trace_out is not None and not (
        args.observe is not None
        or args.critical_path is not None
        or args.telemetry is not None
    ):
        parser.error("--trace-out needs a run to trace: combine it with "
                     "--observe, --critical-path or --telemetry")
    if args.telemetry_out is not None and args.telemetry is None:
        parser.error("--telemetry-out requires --telemetry N (there are no "
                     "sampled series without a telemetry run)")
    if args.algo is not None and (
        args.critical_path is None and args.telemetry is None
    ):
        parser.error("--algo only applies to --critical-path or --telemetry "
                     "runs")

    if args.faults is not None:
        from repro.faults import run_chaos_soak

        result = run_chaos_soak(
            args.faults, num_nodes=args.nodes, repetitions=args.reps,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        print(f"chaos soak: seed={result.seed} nodes={args.nodes} "
              f"reps={args.reps}")
        print(result.table())
        print(f"total injected={result.total_injected} "
              f"retransmits={result.total_retransmits}; all barriers safe")
        return 0

    if args.crashes is not None:
        from repro.faults import run_crash_soak

        result = run_crash_soak(args.crashes)
        print(f"crash soak: seed={result.seed} combos={len(result.rows)}")
        print(result.table())
        print("every combination terminated; survivors agreed on the "
              "post-shrink group")
        return 0

    if args.critical_path is not None:
        from repro.analysis.critical_path import traced_barrier_run

        cluster, path, end_to_end = traced_barrier_run(
            args.critical_path, algorithm=args.algo or "pe"
        )
        print(path.render_table())
        print(f"end-to-end barrier latency: {end_to_end:.3f} us "
              f"(path covers {path.total_us / end_to_end:.1%})")
        if args.trace_out is not None:
            cluster.tracer.write_chrome_trace(
                args.trace_out, flow_steps=path.events
            )
            print(f"wrote {args.trace_out}", file=sys.stderr)
        return 0

    if args.telemetry is not None:
        from repro.analysis.hotspots import run_telemetry_barrier
        from repro.telemetry import write_telemetry_jsonl

        cluster, report = run_telemetry_barrier(
            args.telemetry,
            algorithm=args.algo or "dissemination",
            sample_us=args.sample_us,
        )
        tel = cluster.telemetry
        print(report.render_table())
        print(f"telemetry: {len(tel.series)} series, "
              f"{tel.samples_taken} samples at {tel.sample_us:g} us")
        if args.telemetry_out is not None:
            write_telemetry_jsonl(args.telemetry_out, tel.series.values())
            print(f"wrote {args.telemetry_out}", file=sys.stderr)
        if args.trace_out is not None:
            cluster.tracer.write_chrome_trace(
                args.trace_out, counter_series=list(tel.series.values())
            )
            print(f"wrote {args.trace_out}", file=sys.stderr)
        return 0

    if args.observe is not None:
        with run_observed_barrier(
            num_nodes=args.observe, trace_path=args.trace_out
        ) as cluster:
            print(metrics_table(cluster.metrics))
        if args.trace_out is not None:
            print(f"wrote {args.trace_out}", file=sys.stderr)
        return 0

    from repro.analysis.figure5 import assemble_sweep, figure5_spec
    from repro.campaign import run_campaign, write_bench

    reps = QUICK_REPS if args.quick else BENCH_REPS
    warmup = QUICK_WARMUP if args.quick else BENCH_WARMUP
    systems = {
        "4.3": [LANAI_4_3_SYSTEM],
        "7.2": [LANAI_7_2_SYSTEM],
        "both": [LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM],
    }[args.system]

    # One campaign for every selected testbed: the jobs are independent,
    # so both systems' sweeps share the worker pool and the cache.
    campaign_jobs = []
    for system in systems:
        print(f"sweeping {system.name} ...", file=sys.stderr)
        campaign_jobs.extend(
            figure5_spec(system, repetitions=reps, warmup=warmup).compile()
        )
    campaign = run_campaign(
        campaign_jobs, jobs=args.jobs, cache_dir=args.cache_dir,
        name="figure5",
    ).raise_on_failure()
    print(
        f"campaign: {len(campaign.results)} jobs, "
        f"{campaign.cache_hits} cache hits, "
        f"{campaign.simulated} simulated, {campaign.failed} failed",
        file=sys.stderr,
    )

    all_rows: List[list] = []
    sweeps: Dict[str, Dict[str, Dict[int, BarrierMeasurement]]] = {}
    for system in systems:
        sweep = assemble_sweep(campaign, lanai_name=system.lanai_model.name)
        sweeps[system.lanai_model.name] = sweep
        all_rows.extend(figure5_rows(system, sweep))

    print(render_report(all_rows))
    bench_dir = args.out if args.out is not None else Path(".")
    bench_dir.mkdir(parents=True, exist_ok=True)
    bench_path = write_bench(bench_dir, campaign)
    print(f"wrote {bench_path}", file=sys.stderr)
    if args.out is not None:
        write_outputs(args.out, all_rows)
        print(f"wrote {args.out}/figure5.csv and {args.out}/report.md",
              file=sys.stderr)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(tables_json(systems, sweeps), indent=1, sort_keys=True)
        )
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
