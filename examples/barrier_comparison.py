#!/usr/bin/env python
"""Reproduce the paper's Figure 5 comparison from the command line.

Sweeps system size and prints the four barrier variants (host/NIC x
PE/GB, GB at its best tree dimension) for a chosen LANai generation,
next to the paper's published anchors.

Run:  python examples/barrier_comparison.py [--lanai 4.3|7.2] [--reps N]
"""

import argparse

from repro.analysis.calibration import LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM
from repro.analysis.figure5 import run_measure_sweep
from repro.analysis.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lanai", choices=["4.3", "7.2"], default="4.3",
                        help="NIC generation (default: 4.3, the 16-node system)")
    parser.add_argument("--reps", type=int, default=6,
                        help="measured barriers per configuration")
    args = parser.parse_args()

    system = LANAI_4_3_SYSTEM if args.lanai == "4.3" else LANAI_7_2_SYSTEM
    print(f"system: {system.name}")
    print(f"sweeping N in {system.sizes} "
          f"(GB minimized over tree dimensions 1..N-1) ...")

    sweep, _ = run_measure_sweep(
        system.cluster_config(max(system.sizes)),
        sizes=system.sizes,
        repetitions=args.reps,
        warmup=2,
    )

    rows = []
    for n in system.sizes:
        host_pe = sweep["host-pe"][n].mean_latency_us
        nic_pe = sweep["nic-pe"][n].mean_latency_us
        host_gb = sweep["host-gb"][n]
        nic_gb = sweep["nic-gb"][n]
        anchor = system.anchor(n, "nic-pe")
        rows.append([
            n,
            host_pe,
            nic_pe,
            f"{host_gb.mean_latency_us:.2f} (d{host_gb.dimension})",
            f"{nic_gb.mean_latency_us:.2f} (d{nic_gb.dimension})",
            host_pe / nic_pe,
            host_gb.mean_latency_us / nic_gb.mean_latency_us,
            anchor.value if anchor else "-",
        ])
    print()
    print(format_table(
        ["N", "host-PE", "NIC-PE", "host-GB (best)", "NIC-GB (best)",
         "PE factor", "GB factor", "paper NIC-PE"],
        rows,
        title=f"Barrier latency (us), LANai {args.lanai}",
    ))
    print()
    print("Paper anchors: LANai 4.3 16-node NIC-PE = 102.14 us (x1.78), "
          "NIC-GB = 152.27 us (x1.46);")
    print("               LANai 7.2  8-node NIC-PE = 49.25 us (x1.83).")


if __name__ == "__main__":
    main()
