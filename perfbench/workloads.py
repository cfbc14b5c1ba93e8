"""The benchmark's four workloads.

Each workload runs in *units*: one unit is a fixed piece of closed-loop
work (every rank enters its next barrier only after its previous one
exited) whose simulated results are fully determined by the seed, so
every unit of a run must produce identical ``outputs``.  The benchmark
times units until its time budget is spent.

A unit never raises for a failed simulation: a deadlock, a
``RetransmitLimitExceeded`` or a failed campaign job is caught at the
measurement that hit it, its barriers are counted as failed and the
error text is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Tuple

from repro.analysis import experiments, figure5, nbc_overlap
from repro.analysis.calibration import (
    LANAI_4_3_SYSTEM,
    LANAI_7_2_SYSTEM,
    PAPER_ANCHORS,
)
from repro.cluster import builder, runner
from repro.faults.plan import FaultPlan, LossRule
from repro.gm.constants import BarrierReliability
from repro.sim.primitives import Timeout

#: ``repro.core.barrier`` (the package re-exports its ``barrier`` function
#: under the same name, so the module is looked up explicitly).
core_barrier = import_module("repro.core.barrier")


@dataclass
class UnitResult:
    """What one unit of a workload produced."""

    #: Simulated results (JSON-able, deterministic given the seed).
    outputs: dict = field(default_factory=dict)
    #: Barrier instances attempted (one per group-wide barrier).
    barriers: int = 0
    #: Barrier exits summed over all ranks.
    completions: int = 0
    #: Barrier instances that failed.
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def attempt(self, barriers: int, ranks: int, measure: Callable):
        """Run ``measure()`` as ``barriers`` barriers of ``ranks`` ranks;
        returns its result, or None when it failed."""
        self.barriers += barriers
        try:
            value = measure()
        except Exception as exc:  # a failed simulation is a counted failure
            self.failed += barriers
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.completions += barriers * ranks
        return value


def _mean(values) -> float:
    return sum(values) / len(values)


class Workload:
    """A named workload: how to run one unit, read it and check it."""

    name = ""

    def run_unit(self, seed: int, smoke: bool, log) -> UnitResult:
        """Run one unit; ``log.last`` is the cluster built most recently
        (see ``tracing.ClusterLog``)."""
        raise NotImplementedError

    def headline(self, outputs: dict) -> Tuple[float, float]:
        """``(sim_latency_us, nic_factor)`` of the headline config."""
        raise NotImplementedError

    def cp_config(self, seed: int, smoke: bool):
        """Config of the NIC-PE barrier whose critical path the traced
        run reports."""
        raise NotImplementedError

    def check(self, outputs: dict, expected: dict, seed: int, smoke: bool) -> List[str]:
        """Mismatches against pinned results and broken invariants."""
        errors = []
        pinned = expected.get(self.name, {})
        if not smoke:
            want = pinned.get("outputs")
            if want is None:
                want = pinned.get("by_seed", {}).get(str(seed))
            if want is not None and want != outputs:
                errors.append(f"{self.name}: simulated results differ from the pinned ones")
        return errors + self.invariants(outputs)

    def invariants(self, outputs: dict) -> List[str]:
        return []

    def anchors(self, outputs: dict) -> Dict[str, dict]:
        """Simulated results against the paper's published numbers."""
        return {}


# ----------------------------------------------------------------------
# fig5: both testbeds' full Figure-5 sweeps through the campaign layer
# ----------------------------------------------------------------------
class Fig5(Workload):
    name = "fig5"

    @staticmethod
    def _testbeds(smoke: bool):
        if smoke:
            return ((LANAI_4_3_SYSTEM, (2, 4)), (LANAI_7_2_SYSTEM, (2,)))
        return ((LANAI_4_3_SYSTEM, None), (LANAI_7_2_SYSTEM, None))

    def run_unit(self, seed, smoke, log):
        unit = UnitResult()
        per_job = figure5.BENCH_REPS + figure5.BENCH_WARMUP
        jobs = 0
        for system, sizes in self._testbeds(smoke):
            sizes = sizes or system.sizes
            points = figure5.sweep_points(sizes)
            jobs += len(points)
            # One attempt per sweep: a failed job fails its whole sweep.
            unit.barriers += per_job * len(points)
            try:
                sweep, _run = figure5.run_figure5(system, sizes=sizes)
            except Exception as exc:  # a failed job is a counted failure
                unit.failed += per_job * len(points)
                unit.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            unit.completions += per_job * sum(p["num_nodes"] for p in points)
            for variant, by_n in sweep.items():
                for n, m in by_n.items():
                    unit.outputs[f"{system.lanai_model.name}/{variant}/{n}"] = [
                        m.mean_latency_us, m.dimension,
                    ]
        unit.outputs["jobs"] = jobs
        return unit

    def headline(self, outputs):
        n = 16 if "LANai 4.3/nic-pe/16" in outputs else 4
        nic = outputs[f"LANai 4.3/nic-pe/{n}"][0]
        host = outputs[f"LANai 4.3/host-pe/{n}"][0]
        return nic, host / nic

    def cp_config(self, seed, smoke):
        return LANAI_4_3_SYSTEM.cluster_config(4 if smoke else 16)

    def check(self, outputs, expected, seed, smoke):
        errors = super().check(outputs, expected, seed, smoke)
        # The EXPERIMENTS.md Figure-5 rows, as printed there (2 decimals
        # and the best GB dimension).
        for cell, (mean, dim) in expected["fig5"]["table"].items():
            got = outputs.get(cell)
            if got is None:
                if not smoke:
                    errors.append(f"fig5: cell {cell} missing")
                continue
            if f"{got[0]:.2f}" != mean or got[1] != dim:
                errors.append(f"fig5: {cell} = {got[0]:.2f} (d{got[1]}), table says {mean} (d{dim})")
        return errors

    def anchors(self, outputs):
        if "LANai 4.3/nic-pe/16" not in outputs:  # smoke sizes
            return {}

        def lat(lanai, variant, n):
            return outputs[f"{lanai}/{variant}/{n}"][0]

        rows = {
            "nic-pe(16) LANai 4.3": (lat("LANai 4.3", "nic-pe", 16), ("LANai 4.3", 16, "nic-pe")),
            "nic-gb(16) LANai 4.3": (lat("LANai 4.3", "nic-gb", 16), ("LANai 4.3", 16, "nic-gb")),
            "pe factor(8) LANai 4.3": (
                lat("LANai 4.3", "host-pe", 8) / lat("LANai 4.3", "nic-pe", 8),
                ("LANai 4.3", 8, "factor-pe"),
            ),
            "pe factor(8) LANai 7.2": (
                lat("LANai 7.2", "host-pe", 8) / lat("LANai 7.2", "nic-pe", 8),
                ("LANai 7.2", 8, "factor-pe"),
            ),
        }
        out = {}
        for label, (simulated, key) in rows.items():
            paper = PAPER_ANCHORS[key].value
            out[label] = {
                "simulated": simulated,
                "paper": paper,
                "error_pct": 100.0 * (simulated - paper) / paper,
            }
        return out


# ----------------------------------------------------------------------
# fabric64: the 16-port switch tree at 64 nodes
# ----------------------------------------------------------------------
class Fabric64(Workload):
    name = "fabric64"
    #: (warmup, measured) consecutive barriers per unit.
    NIC_LOOP = (2, 10)
    HOST_LOOP = (1, 4)

    @staticmethod
    def nodes(smoke):
        return 20 if smoke else 64

    def run_unit(self, seed, smoke, log):
        unit = UnitResult()
        n = self.nodes(smoke)
        config = LANAI_4_3_SYSTEM.cluster_config(n)
        for key, nic_based, (warmup, reps) in (
            ("nic-pe", True, self.NIC_LOOP),
            ("host-pe", False, self.HOST_LOOP),
        ):
            if smoke:
                warmup, reps = 0, 2
            m = unit.attempt(warmup + reps, n, lambda: experiments.measure_barrier(
                config, nic_based=nic_based, repetitions=reps, warmup=warmup,
            ))
            if m is not None:
                unit.outputs[key] = m.per_barrier_us
        return unit

    def headline(self, outputs):
        nic = _mean(outputs["nic-pe"])
        return nic, _mean(outputs["host-pe"]) / nic

    def cp_config(self, seed, smoke):
        return LANAI_4_3_SYSTEM.cluster_config(self.nodes(smoke))


# ----------------------------------------------------------------------
# lossy16: NIC-PE over the separate reliable barrier stream, 2% loss
# ----------------------------------------------------------------------
class Lossy16(Workload):
    name = "lossy16"
    #: Independent loss plans per unit, and consecutive barriers on each:
    #: averaging over several loss streams keeps the mean steady from
    #: seed to seed.
    STREAMS = 4
    LOSSY_BARRIERS = 50
    #: Lossless host-PE and NIC-PE barriers on the same reliable-stream
    #: NICs, for the NIC factor.
    LOSSLESS_BARRIERS = 20
    LOSS_RATE = 0.02

    @staticmethod
    def nodes(smoke):
        return 8 if smoke else 16

    def config(self, seed, smoke, stream=None):
        """The reliable-barrier testbed; lossy when ``stream`` is given
        (loss-plan seeds of distinct bench seeds never overlap)."""
        system = LANAI_4_3_SYSTEM
        plan = None
        if stream is not None:
            plan = FaultPlan(seed=seed * self.STREAMS + stream,
                             loss=[LossRule(rate=self.LOSS_RATE)])
        return system.cluster_config(
            self.nodes(smoke),
            nic_params=system.nic_params.with_(
                barrier_reliability=BarrierReliability.SEPARATE
            ),
            fault_plan=plan,
        )

    def run_unit(self, seed, smoke, log):
        unit = UnitResult()
        n = self.nodes(smoke)
        reps = 5 if smoke else self.LOSSY_BARRIERS
        for stream in range(self.STREAMS):
            config = self.config(seed, smoke, stream)
            m = unit.attempt(reps, n, lambda: experiments.measure_barrier(
                config, nic_based=True, repetitions=reps, warmup=0,
            ))
            if m is None:
                continue
            cluster = log.last
            unit.outputs[f"lossy{stream}"] = m.per_barrier_us
            unit.outputs[f"lossy{stream}.drops"] = cluster.faults.drops
            unit.outputs[f"lossy{stream}.retransmits"] = sum(
                conn.packets_retransmitted
                for node in cluster.nodes for conn in node.nic.connections.values()
            )
        reps = 2 if smoke else self.LOSSLESS_BARRIERS
        config = self.config(seed, smoke)
        for key, nic_based in (("lossless/nic-pe", True), ("lossless/host-pe", False)):
            m = unit.attempt(reps, n, lambda: experiments.measure_barrier(
                config, nic_based=nic_based, repetitions=reps, warmup=0,
            ))
            if m is not None:
                unit.outputs[key] = m.per_barrier_us
        return unit

    def headline(self, outputs):
        lossy = [t for k in range(self.STREAMS) for t in outputs[f"lossy{k}"]]
        factor = _mean(outputs["lossless/host-pe"]) / _mean(outputs["lossless/nic-pe"])
        return _mean(lossy), factor

    def cp_config(self, seed, smoke):
        return self.config(seed, smoke, stream=0)

    def invariants(self, outputs):
        drops = sum(outputs.get(f"lossy{k}.drops", 0) for k in range(self.STREAMS))
        return [] if drops else ["lossy16: the loss plans dropped nothing"]


# ----------------------------------------------------------------------
# nbc16: Ibarrier overlap through the MPI non-blocking schedule engine
# ----------------------------------------------------------------------
class Nbc16(Workload):
    name = "nbc16"
    ITERATIONS = 30
    COMPUTE_US = 60.0
    SKEW_US = 50.0

    @staticmethod
    def nodes(smoke):
        return 8 if smoke else 16

    def run_unit(self, seed, smoke, log):
        unit = UnitResult()
        n = self.nodes(smoke)
        iterations = 4 if smoke else self.ITERATIONS
        config = LANAI_4_3_SYSTEM.cluster_config(n, seed=seed)
        # Blocking, overlapped and pure Ibarrier runs.
        m = unit.attempt(3 * iterations, n, lambda: nbc_overlap.measure_nbc_overlap(
            config, iterations=iterations, compute_us=self.COMPUTE_US,
            skew_max_us=self.SKEW_US,
        ))
        if m is not None:
            unit.outputs["overlap"] = m.to_dict()
        # The same skewed loop with the blocking NIC-PE barrier.
        totals = unit.attempt(iterations, n, lambda: _run_group(
            config, _skewed_nic_barriers, iterations=iterations,
            skew_max_us=self.SKEW_US,
        ))
        if totals is not None:
            unit.outputs["nic-pe.total_us"] = max(totals)
        return unit

    def headline(self, outputs):
        overlap = outputs["overlap"]
        pure = overlap["pure_total_us"]
        return pure / overlap["iterations"], pure / outputs["nic-pe.total_us"]

    def cp_config(self, seed, smoke):
        return LANAI_4_3_SYSTEM.cluster_config(self.nodes(smoke), seed=seed)

    def invariants(self, outputs):
        errors = []
        overlap = outputs.get("overlap")
        if overlap is None:
            return errors
        if not overlap["overlap_pct"] > 0:
            errors.append(f"nbc16: no overlap ({overlap['overlap_pct']}%)")
        cache = overlap["cache"]
        if cache.get("hits") != overlap["iterations"] - 1:
            errors.append(f"nbc16: schedule cache {cache}")
        return errors


def _run_group(config, program, **kwargs):
    """Build a cluster from ``config`` and run ``program`` on every node."""
    cluster = builder.build_cluster(config)
    return runner.run_on_group(
        cluster, program, group=runner.default_group(cluster),
        max_events=20_000_000, **kwargs,
    )


def _skewed_nic_barriers(ctx, *, iterations, skew_max_us):
    """Per-rank closed loop: seeded entry skew, then a NIC-PE barrier.

    The skew draws use the stream names of
    :mod:`repro.analysis.nbc_overlap`, so each rank waits exactly as long
    as in the Ibarrier runs.
    """
    for rep in range(iterations):
        delay = ctx.cluster.rng.uniform(f"nbc_skew.{ctx.rank}.{rep}", 0.0, skew_max_us)
        if delay > 0:
            yield Timeout(delay)
        yield from core_barrier.barrier(ctx.port, ctx.group, ctx.rank, algorithm="pe")
    return ctx.now


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig5(), Fabric64(), Lossy16(), Nbc16())
}
