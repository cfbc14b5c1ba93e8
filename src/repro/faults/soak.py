"""Chaos soak: every barrier algorithm, repeatedly, under seeded faults.

One :func:`run_chaos_soak` call sweeps the paper's barrier
implementations -- host-level gather/broadcast and pairwise exchange,
NIC-based PE / GB / dissemination -- and, for the NIC-based ones, both
reliability designs of Section 4.4 (piggybacked ``TOKEN_PER_DESTINATION``
and the dedicated ``SEPARATE`` stream).  Each combination gets its own
cluster built with a :class:`~repro.faults.plan.FaultPlan` derived from
the soak seed, shortened retransmission timeouts so recovery happens
inside the run, and ``repetitions`` consecutive barriers whose
enter/exit times are checked against the fundamental safety property
(nobody exits barrier *k* before everyone entered it).

Determinism contract: the same seed produces the same fault plans, the
same event counts and the same final simulated times -- a failing soak
is reproducible from just its seed (``report.py --faults SEED``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier as nic_barrier
from repro.core.host_barrier import host_barrier
from repro.gm.constants import BarrierReliability
from repro.nic.nic import NicParams

#: (label, nic_based, algorithm) -- every barrier flavour the repo has.
#: ``nbc-ibarrier`` is the non-blocking schedule engine's dissemination
#: barrier (:mod:`repro.mpi.nbc`): its messages ride the regular
#: reliable stream with compute overlapped between completion polls, so
#: the soak drives the progress engine through the retransmission and
#: fault-recovery paths.  It is listed with ``nic_based=False`` because
#: the barrier-stream reliability mode does not apply to it (one combo,
#: reported as "regular", like the host barriers).
ALGORITHMS = (
    ("host-gb", False, "gb"),
    ("host-pe", False, "pe"),
    ("nic-gb", True, "gb"),
    ("nic-pe", True, "pe"),
    ("nic-dissemination", True, "dissemination"),
    ("nbc-ibarrier", False, "nbc"),
)

#: Reliability modes worth soaking.  UNRELIABLE is excluded on purpose:
#: under injected loss it has no recovery path, so a hang is expected
#: behaviour there, not a bug.  Host barriers ride the (always reliable)
#: regular stream; the barrier mode only changes NIC-based runs.
RELIABILITY_MODES = (
    BarrierReliability.SEPARATE,
    BarrierReliability.TOKEN_PER_DESTINATION,
)


@dataclass
class SoakRow:
    """The outcome of one (algorithm, reliability) combination."""

    label: str
    reliability: str
    seed: int
    repetitions: int
    final_time_us: float
    events: int
    drops: int
    corruptions: int
    retransmits: int
    duplicates: int
    future_dropped: int
    nacks: int
    alarms: int

    @property
    def injected(self) -> int:
        """Packets the fault plan removed from the wire."""
        return self.drops + self.corruptions

    def to_dict(self) -> dict:
        """A JSON-able dict (the campaign ResultStore payload schema)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SoakRow":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class SoakResult:
    """Everything one chaos soak produced."""

    seed: int
    num_nodes: int
    repetitions: int
    rows: List[SoakRow] = field(default_factory=list)

    @property
    def total_injected(self) -> int:
        """Packets lost or corrupted across every combination."""
        return sum(r.injected for r in self.rows)

    @property
    def total_retransmits(self) -> int:
        """Retransmissions across every combination."""
        return sum(r.retransmits for r in self.rows)

    def signature(self) -> tuple:
        """A determinism fingerprint: same seed => identical signature."""
        return tuple(
            (r.label, r.reliability, r.events, round(r.final_time_us, 6))
            for r in self.rows
        )

    def table(self) -> str:
        """A fixed-width report table (used by ``report.py --faults``)."""
        header = (
            f"{'combo':<22} {'reliability':<22} {'t_final_us':>10} "
            f"{'events':>8} {'inject':>6} {'rexmit':>6} {'dup':>5} "
            f"{'nack':>5} {'alarms':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.label:<22} {r.reliability:<22} {r.final_time_us:>10.2f} "
                f"{r.events:>8} {r.injected:>6} {r.retransmits:>6} "
                f"{r.duplicates:>5} {r.nacks:>5} {r.alarms:>6}"
            )
        return "\n".join(lines)


def combo_seed(seed: int, index: int) -> int:
    """A distinct, stable per-combination seed (splitmix-style)."""
    x = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x & 0x7FFFFFFF


def run_soak_combo(
    *,
    seed: int,
    label: str,
    nic_based: bool,
    algorithm: str,
    reliability: BarrierReliability,
    num_nodes: int = 8,
    repetitions: int = 3,
    intensity: float = 1.0,
    max_events: int = 5_000_000,
    flight_dump_dir: Optional[str] = ".",
) -> SoakRow:
    """Run one algorithm/reliability combination under its seeded plan.

    On failure the flight recorder is dumped as
    ``flight-<label>-<reliability>-s<seed>.{jsonl,txt}`` under
    ``flight_dump_dir`` (pass ``None`` to skip the files; the snapshot
    still travels on the exception as ``exc.flight_records``).
    """
    from repro.faults.plan import FaultPlan
    from repro.sim.primitives import Timeout

    plan = FaultPlan.random(seed, num_nodes, intensity=intensity)
    nic_params = NicParams(
        barrier_reliability=reliability,
        retransmit_timeout_us=300.0,
        barrier_retransmit_timeout_us=200.0,
    )
    cluster = build_cluster(
        ClusterConfig(
            num_nodes=num_nodes,
            nic_params=nic_params,
            seed=seed,
            fault_plan=plan,
        )
    )
    enters: Dict[int, Dict[int, float]] = {r: {} for r in range(repetitions)}
    exits: Dict[int, Dict[int, float]] = {r: {} for r in range(repetitions)}
    barrier_op = nic_barrier if nic_based else host_barrier

    if algorithm == "nbc":
        from repro.mpi.communicator import Communicator

        def program(ctx):
            # Non-blocking Ibarrier with compute overlapped between
            # completion polls: the progress engine has to advance its
            # schedule through whatever loss/corruption/flap the plan
            # injects on the regular reliable stream.
            yield Timeout(float((ctx.rank * 7) % num_nodes))
            comm = Communicator(ctx.port, ctx.group, ctx.rank)
            for rep in range(repetitions):
                enters[rep][ctx.rank] = ctx.now
                request = yield from comm.ibarrier()
                for _ in range(4):
                    yield from ctx.node.compute(10.0)
                    yield from request.test()
                yield from request.wait()
                exits[rep][ctx.rank] = ctx.now
    else:
        def program(ctx):
            # A deterministic per-rank stagger so faults hit the barrier
            # in different phases (entry, wave, exit) rather than all at
            # once.
            yield Timeout(float((ctx.rank * 7) % num_nodes))
            for rep in range(repetitions):
                enters[rep][ctx.rank] = ctx.now
                yield from barrier_op(ctx.port, ctx.group, ctx.rank, algorithm=algorithm)
                exits[rep][ctx.rank] = ctx.now

    try:
        run_on_group(cluster, program, max_events=max_events)
    except Exception as exc:
        # A soak combo that dies (RetransmitLimitExceeded, deadlock, ...)
        # leaves its black box on disk before the failure propagates to
        # the campaign layer; the snapshot also rides on the exception.
        if getattr(exc, "flight_records", None) is None:
            try:
                exc.flight_records = cluster.tracer.flight.snapshot()
            except AttributeError:
                pass
        records = getattr(exc, "flight_records", None)
        if records and flight_dump_dir is not None:
            from repro.sim.tracing import dump_flight_records

            prefix = (
                Path(flight_dump_dir)
                / f"flight-{label}-{reliability.name.lower()}-s{seed}"
            )
            jsonl_path, _ = dump_flight_records(records, prefix)
            try:
                exc.flight_dump = str(jsonl_path)
            except AttributeError:
                pass
        raise

    for rep in range(repetitions):
        latest_enter = max(enters[rep].values())
        earliest_exit = min(exits[rep].values())
        if earliest_exit < latest_enter:
            raise AssertionError(
                f"soak {label}/{reliability.name} seed={seed}: barrier "
                f"rep {rep} unsafe -- a rank exited at {earliest_exit:.3f} "
                f"before the last rank entered at {latest_enter:.3f}"
            )

    connections = [
        conn
        for node in cluster.nodes
        for conn in node.nic.connections.values()
    ]
    controller = cluster.faults
    return SoakRow(
        label=label,
        reliability=reliability.name if nic_based else "regular",
        seed=seed,
        repetitions=repetitions,
        final_time_us=cluster.sim.now,
        events=cluster.sim.events_executed,
        drops=controller.drops,
        corruptions=controller.corruptions,
        retransmits=sum(c.packets_retransmitted for c in connections),
        duplicates=sum(c.duplicates_dropped for c in connections),
        future_dropped=sum(c.future_dropped for c in connections),
        nacks=sum(c.nacks_sent for c in connections),
        alarms=sum(len(node.nic.alarms) for node in cluster.nodes),
    )


def soak_jobs(
    seed: int,
    num_nodes: int = 8,
    repetitions: int = 3,
    intensity: float = 1.0,
    max_events: int = 5_000_000,
    combos: Optional[List[tuple]] = None,
) -> List:
    """The soak as campaign jobs: one ``kind="soak"`` job per
    (algorithm, reliability) combination, each carrying everything
    :func:`run_soak_combo` needs as plain JSON-able params (so results
    are content-addressable and the combos can run in any process)."""
    from repro.campaign.spec import JobSpec  # lazy: soak is imported at
    # package init, the campaign worker imports this module back

    jobs: List[JobSpec] = []
    index = 0
    for label, nic_based, algorithm in ALGORITHMS:
        modes = RELIABILITY_MODES if nic_based else (RELIABILITY_MODES[0],)
        for reliability in modes:
            if combos is not None and (label, reliability.name) not in combos:
                index += 1
                continue
            jobs.append(
                JobSpec(
                    kind="soak",
                    params={
                        "seed": combo_seed(seed, index),
                        "label": label,
                        "nic_based": nic_based,
                        "algorithm": algorithm,
                        "reliability": reliability.name,
                        "num_nodes": num_nodes,
                        "repetitions": repetitions,
                        "intensity": intensity,
                        "max_events": max_events,
                    },
                    tag=f"soak-{seed}/{label}/{reliability.name.lower()}",
                )
            )
            index += 1
    return jobs


def run_chaos_soak(
    seed: int,
    num_nodes: int = 8,
    repetitions: int = 3,
    intensity: float = 1.0,
    max_events: int = 5_000_000,
    combos: Optional[List[tuple]] = None,
    jobs: int = 1,
    store=None,
    cache_dir=None,
) -> SoakResult:
    """Soak every barrier algorithm under seeded faults; see module doc.

    The combinations are submitted through :mod:`repro.campaign`
    (``jobs`` worker processes, optional content-addressed result cache),
    so a soak sweep shares the executor and caching of every other
    campaign in the repo.  A safety violation or a
    :class:`~repro.nic.nic.RetransmitLimitExceeded` alarm in any
    combination raises :class:`~repro.campaign.executor.CampaignJobError`
    carrying the failing combo's traceback -- a plan from
    :meth:`FaultPlan.random` is recoverable by construction, so a failure
    here means a real recovery-path bug.
    """
    from repro.campaign.executor import run_campaign

    specs = soak_jobs(
        seed,
        num_nodes=num_nodes,
        repetitions=repetitions,
        intensity=intensity,
        max_events=max_events,
        combos=combos,
    )
    campaign = run_campaign(
        specs,
        jobs=jobs,
        store=store,
        cache_dir=cache_dir,
        name=f"chaos-soak-{seed}",
    ).raise_on_failure()
    result = SoakResult(
        seed=seed, num_nodes=num_nodes, repetitions=repetitions
    )
    result.rows.extend(
        SoakRow.from_dict(job.value) for job in campaign.results
    )
    return result
