"""Fault soaks: every barrier algorithm, repeatedly, under seeded faults.

One harness, two fault families.  Each combination gets its own cluster
with shortened retransmission timeouts (so recovery happens inside the
run), a per-rank stagger of ``(rank * 7) % n`` microseconds (so faults
hit the barrier in different phases rather than all at once) and a
plan derived from a per-combination seed:

* ``"loss"`` -- the chaos soak (``report.py --faults SEED``).  A
  :meth:`~repro.faults.plan.FaultPlan.random` plan (loss, corruption, a
  link flap, a port stall, a NIC pause, an ACK-loss burst) against the
  host-level gather/broadcast and pairwise exchange, NIC-based PE / GB /
  dissemination under both reliability designs of Section 4.4
  (piggybacked ``TOKEN_PER_DESTINATION`` and the dedicated ``SEPARATE``
  stream), and the non-blocking ibarrier.  Every repetition's enter/exit
  times are checked against the fundamental safety property: nobody
  exits barrier *k* before everyone entered it.
* ``"crash"`` -- the crash soak (``report.py --crashes SEED``).  One
  seeded :class:`~repro.faults.plan.NodeCrash` kills a node outright at a
  pre-, mid- or post-barrier instant, for every algorithm x phase x
  cluster size, and the fail-stop contract is checked: every survivor
  terminates (aborting with a typed
  :class:`~repro.gm.events.PeerFailure` if the crash lands inside a
  barrier), every survivor holds the same post-shrink group, and the
  shrink excludes the victim and nobody else.

The crash family shrinks *unconditionally* after its barrier phase.
Failure observation is not collective -- a crash between dissemination
rounds can let some survivors complete the final barrier while others
abort it -- so a shrink conditional on having seen a ``PeerFailure``
would leave the observers gossiping with ranks that already exited.
This is also what a checkpointing application's recovery driver does:
everyone enters recovery, and on a clean run it degenerates to a
one-round agreement on the empty suspect set.

Determinism contract: the same seed produces the same plans, the same
event counts and the same final simulated times, so a failing soak is
reproducible from its seed alone (:meth:`SoakResult.signature`).  Every
sweep runs through :mod:`repro.campaign` as ``kind="soak"`` jobs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier as nic_barrier
from repro.core.host_barrier import host_barrier
from repro.faults.plan import FaultPlan, NodeCrash
from repro.gm.constants import BarrierReliability
from repro.gm.events import PeerFailure
from repro.mpi.communicator import Communicator, MpiParams
from repro.nic.nic import NicParams
from repro.sim.primitives import Timeout
from repro.sim.tracing import dump_flight_records

#: (label, algorithm) -- every barrier flavour the repo has, in sweep
#: order.  ``host-*`` are the host-based algorithms over plain sends,
#: ``nic-*`` the NIC-based engines, and ``nbc-ibarrier`` the
#: non-blocking schedule engine's dissemination barrier
#: (:mod:`repro.mpi.nbc`): its messages ride the regular reliable stream
#: with compute overlapped between completion polls, so the progress
#: engine goes through the retransmission, abort and reconfigure paths.
ALGORITHMS = (
    ("host-gb", "gb"),
    ("host-pe", "pe"),
    ("nic-gb", "gb"),
    ("nic-pe", "pe"),
    ("nic-dissemination", "dissemination"),
    ("nbc-ibarrier", "nbc"),
)

#: Reliability modes the loss family soaks.  UNRELIABLE is excluded on
#: purpose: under injected loss it has no recovery path, so a hang is
#: expected behaviour there, not a bug.  Only ``nic-*`` combos soak
#: both; the others ride the (always reliable) regular stream and run
#: once, reported as "regular".  The crash family loses no packets and
#: keeps the NIC default, UNRELIABLE.
RELIABILITY_MODES = (
    BarrierReliability.SEPARATE,
    BarrierReliability.TOKEN_PER_DESTINATION,
)

#: Nominal crash instants (microseconds).  "pre" lands before any
#: barrier traffic, "mid" inside the barrier repetitions, "post" far
#: after every combination has drained (the victim dies of old age; the
#: run must stay failure-free) -- nominal because the contract under
#: test (terminate, agree, reproduce) must hold wherever the crash
#: actually falls.
CRASH_PHASES = (
    ("pre", 1.0),
    ("mid", 90.0),
    ("post", 50_000.0),
)

#: Cluster sizes the crash family sweeps.
CRASH_SIZES = (4, 8, 16)

#: Barriers attempted before the crash family's unconditional shrink,
#: and run fresh on the agreed group after it.
REPETITIONS = 3
POST_SHRINK_REPETITIONS = 2


@dataclass
class SoakRow:
    """The outcome of one soak combination (either family).

    The recovery counters are read for both families; the fields after
    ``alarms`` describe the crash family's fault and stay at their
    defaults for a loss row.
    """

    family: str
    label: str
    reliability: str
    seed: int
    num_nodes: int
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
    phase: str = ""
    victim: Optional[int] = None
    crash_at_us: Optional[float] = None
    observed_failure: bool = False
    shrunken_size: int = 0
    suspects_declared: int = 0

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


#: Report columns per family: (header, alignment and width, cell).
_COLUMNS = {
    "loss": (
        ("combo", "<22", lambda r: r.label),
        ("reliability", "<22", lambda r: r.reliability),
        ("t_final_us", ">10", lambda r: f"{r.final_time_us:.2f}"),
        ("events", ">8", lambda r: r.events),
        ("inject", ">6", lambda r: r.injected),
        ("rexmit", ">6", lambda r: r.retransmits),
        ("dup", ">5", lambda r: r.duplicates),
        ("nack", ">5", lambda r: r.nacks),
        ("alarms", ">6", lambda r: r.alarms),
    ),
    "crash": (
        ("combo", "<20", lambda r: r.label),
        ("phase", "<5", lambda r: r.phase),
        ("nodes", ">5", lambda r: r.num_nodes),
        ("victim", ">6", lambda r: r.victim),
        ("failed?", ">7", lambda r: "yes" if r.observed_failure else "no"),
        ("shrunk", ">6", lambda r: r.shrunken_size),
        ("t_final_us", ">10", lambda r: f"{r.final_time_us:.2f}"),
        ("events", ">8", lambda r: r.events),
    ),
}


@dataclass
class SoakResult:
    """Everything one soak sweep produced."""

    family: str
    seed: int
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
            (r.label, r.reliability, r.phase, r.num_nodes, r.events,
             round(r.final_time_us, 6), r.shrunken_size)
            for r in self.rows
        )

    def table(self) -> str:
        """A fixed-width report table (``report.py --faults/--crashes``)."""
        columns = _COLUMNS[self.family]
        header = " ".join(f"{name:{spec}}" for name, spec, _ in columns)
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                " ".join(f"{cell(r):{spec}}" for _, spec, cell in columns)
            )
        return "\n".join(lines)


@dataclass
class SoakRun:
    """One finished combination: its row, its closed cluster (counters
    and detector state stay readable, for readers such as the
    reliability bench) and every rank's barrier timeline.

    ``enters[k][rank]`` / ``exits[k][rank]`` are the simulated times a
    rank entered and left barrier ``k``.  Crash-family barriers
    ``repetitions`` onwards are the post-shrink ones; a barrier a rank
    aborted with ``PeerFailure`` has an enter and no exit.
    """

    row: SoakRow
    cluster: Cluster
    enters: Dict[int, Dict[int, float]]
    exits: Dict[int, Dict[int, float]]


def combo_seed(seed: int, index: int) -> int:
    """A distinct, stable per-combination seed (splitmix-style)."""
    x = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x & 0x7FFFFFFF


def _combo_name(family, label, reliability, phase, num_nodes) -> str:
    """``nic-pe/separate`` (loss) or ``nic-pe/mid/n8`` (crash)."""
    if family == "loss":
        return f"{label}/{reliability.lower()}"
    return f"{label}/{phase}/n{num_nodes}"


def check_barrier_safety(name, enters, exits) -> None:
    """Raise ``AssertionError`` if any rank left a barrier before the
    last rank entered it (``enters``/``exits`` as on :class:`SoakRun`)."""
    for k in sorted(exits):
        latest_enter = max(enters[k].values())
        earliest_exit = min(exits[k].values())
        if earliest_exit < latest_enter:
            raise AssertionError(
                f"{name}: barrier {k} unsafe -- a rank exited at "
                f"{earliest_exit:.3f} before the last rank entered at "
                f"{latest_enter:.3f}"
            )


def check_fail_stop(name, num_nodes, victim, suspects, groups) -> tuple:
    """Check the crash family's fail-stop contract; return the agreed group.

    ``suspects`` and ``groups`` map each rank that finished its program
    to the suspects of the ``PeerFailure`` it caught (empty if none) and
    to its post-shrink group.  Raises ``AssertionError`` -- explicitly,
    so ``python -O`` keeps the check -- unless every survivor finished,
    all hold one group, a shrunken group is everyone but the victim and
    every suspect set is the victim alone.
    """
    survivors = [r for r in range(num_nodes) if r != victim]
    missing = [r for r in survivors if r not in groups]
    if missing:
        raise AssertionError(
            f"{name}: surviving ranks {missing} never finished their "
            f"program"
        )
    agreed = {groups[r] for r in survivors}
    if len(agreed) != 1:
        raise AssertionError(
            f"{name}: survivors disagree on the post-shrink group: "
            f"{sorted(agreed)}"
        )
    final_group = agreed.pop()
    if len(final_group) < num_nodes and (
        len(final_group) != num_nodes - 1
        or any(ep[0] == victim for ep in final_group)
    ):
        raise AssertionError(
            f"{name}: shrunken group {final_group} is not 'everyone but "
            f"victim {victim}'"
        )
    for r in survivors:
        if suspects[r] and suspects[r] != [victim]:
            raise AssertionError(
                f"{name}: rank {r} raised PeerFailure for {suspects[r]}, "
                f"not victim {victim}"
            )
    return final_group


def run_soak_combo(
    *,
    family: str,
    seed: int,
    label: str,
    algorithm: str,
    num_nodes: int,
    reliability: str = BarrierReliability.UNRELIABLE.name,
    repetitions: int = REPETITIONS,
    intensity: float = 1.0,
    phase: str = "",
    crash_at_us: float = 0.0,
    post_shrink: int = POST_SHRINK_REPETITIONS,
    max_events: int = 5_000_000,
    flight_dump_dir: Optional[str] = ".",
) -> SoakRun:
    """Run one combination of either family under its seeded plan.

    ``reliability`` names the NIC barrier stream's
    :class:`BarrierReliability`; ``intensity`` scales the loss plan;
    ``phase``/``crash_at_us`` place the crash (the victim is
    ``seed % num_nodes``) and ``post_shrink`` counts the barriers run on
    the shrunken group.  Raises ``AssertionError`` when a loss barrier
    is unsafe or the fail-stop contract breaks (a hang is caught by
    ``run_on_group``'s deadlock check / ``max_events``).

    On failure the flight recorder is dumped as
    ``flight-<label>-<reliability>-s<seed>`` (loss) or
    ``flight-<label>-<phase>-n<size>-s<seed>`` (crash) ``.{jsonl,txt}``
    under ``flight_dump_dir`` (pass ``None`` to skip the files; the
    snapshot still travels on the exception as ``exc.flight_records``).
    """
    crash = family == "crash"
    if not crash and family != "loss":
        raise ValueError(f"unknown soak family {family!r}")
    name = _combo_name(family, label, reliability, phase, num_nodes)
    victim = seed % num_nodes if crash else None
    plan = (
        FaultPlan(seed=seed, crashes=[NodeCrash(victim, crash_at_us)])
        if crash else FaultPlan.random(seed, num_nodes, intensity=intensity)
    )
    nic_params = NicParams(
        barrier_reliability=BarrierReliability[reliability],
        retransmit_timeout_us=300.0,
        barrier_retransmit_timeout_us=200.0,
    )
    nic_based = label.startswith("nic-")
    barriers = repetitions + (post_shrink if crash else 0)
    enters: Dict[int, Dict[int, float]] = {k: {} for k in range(barriers)}
    exits: Dict[int, Dict[int, float]] = {k: {} for k in range(barriers)}
    suspects: Dict[int, List[int]] = {}
    groups: Dict[int, tuple] = {}

    def one_barrier(ctx, comm, k):
        enters[k][ctx.rank] = ctx.now
        if algorithm == "nbc":
            request = yield from comm.ibarrier()
            for _ in range(4):
                yield from ctx.node.compute(10.0)
                yield from request.test()
            yield from request.wait()
        elif crash:
            # Through the communicator, as an application would, so the
            # barriers after the shrink run on the group it agreed on.
            yield from comm.barrier(algorithm=algorithm)
        else:
            # Straight to the barrier, with no MPI call overhead.
            op = nic_barrier if nic_based else host_barrier
            yield from op(ctx.port, ctx.group, ctx.rank, algorithm=algorithm)
        exits[k][ctx.rank] = ctx.now

    def program(ctx):
        yield Timeout(float((ctx.rank * 7) % num_nodes))
        comm = Communicator(
            ctx.port, ctx.group, ctx.rank,
            MpiParams(nic_collectives=nic_based),
        )
        seen: set = set()
        try:
            for k in range(repetitions):
                yield from one_barrier(ctx, comm, k)
        except PeerFailure as failure:
            if not crash:
                raise
            seen = set(failure.suspects)
            ctx.port.acknowledge_failures(seen)
        if crash:
            # Unconditional recovery (see module doc): on a clean run
            # this agrees on the empty set and keeps the whole group.
            yield from comm.shrink()
            for k in range(repetitions, barriers):
                yield from one_barrier(ctx, comm, k)
            suspects[ctx.rank] = sorted(seen)
            groups[ctx.rank] = comm.group

    config = ClusterConfig(
        num_nodes=num_nodes, nic_params=nic_params, seed=seed,
        fault_plan=plan,
    )
    with build_cluster(config) as cluster:
        try:
            run_on_group(cluster, program, max_events=max_events)
        except Exception as exc:
            # A combo that dies (RetransmitLimitExceeded, deadlock, ...)
            # leaves its black box on disk before the failure propagates
            # to the campaign layer; the snapshot also rides on the
            # exception.
            if getattr(exc, "flight_records", None) is None:
                try:
                    exc.flight_records = cluster.tracer.flight.snapshot()
                except AttributeError:
                    pass
            records = getattr(exc, "flight_records", None)
            if records and flight_dump_dir is not None:
                stem = name.replace("/", "-")
                prefix = Path(flight_dump_dir) / f"flight-{stem}-s{seed}"
                jsonl_path, _ = dump_flight_records(records, prefix)
                try:
                    exc.flight_dump = str(jsonl_path)
                except AttributeError:
                    pass
            raise

    where = f"{family} soak {name} seed={seed}"
    crash_fields = {}
    if crash:
        final_group = check_fail_stop(
            where, num_nodes, victim, suspects, groups
        )
        crash_fields = dict(
            phase=phase,
            victim=victim,
            crash_at_us=crash_at_us,
            observed_failure=any(suspects[r] for r in groups if r != victim),
            shrunken_size=len(final_group),
            suspects_declared=sum(
                len(node.nic.suspected_peers)
                for node in cluster.nodes
                if node.node_id != victim
            ),
        )
    else:
        check_barrier_safety(where, enters, exits)

    nics = [node.nic for node in cluster.nodes]
    connections = [conn for nic in nics for conn in nic.connections.values()]
    controller = cluster.faults
    row = SoakRow(
        family=family,
        label=label,
        reliability=reliability if nic_based else "regular",
        seed=seed,
        num_nodes=num_nodes,
        repetitions=repetitions,
        final_time_us=cluster.sim.now,
        events=cluster.sim.events_executed,
        drops=controller.drops,
        corruptions=controller.corruptions,
        retransmits=sum(c.packets_retransmitted for c in connections),
        duplicates=sum(c.duplicates_dropped for c in connections),
        future_dropped=sum(c.future_dropped for c in connections),
        nacks=sum(c.nacks_sent for c in connections),
        alarms=sum(len(nic.alarms) for nic in nics),
        **crash_fields,
    )
    return SoakRun(row=row, cluster=cluster, enters=enters, exits=exits)


def soak_jobs(
    seed: int,
    num_nodes: int = 8,
    repetitions: int = 3,
    intensity: float = 1.0,
    max_events: int = 5_000_000,
    combos: Optional[List[tuple]] = None,
    *,
    family: str = "loss",
    algorithms=ALGORITHMS,
    phases=CRASH_PHASES,
    sizes=CRASH_SIZES,
) -> List:
    """A soak sweep as campaign jobs: one ``kind="soak"`` job per
    combination, each carrying everything :func:`run_soak_combo` needs
    as plain JSON-able params (so results are content-addressable and
    the combos can run in any process).

    The loss family runs every algorithm x reliability mode on
    ``num_nodes`` nodes at fault ``intensity``; ``combos`` keeps only the
    listed (label, reliability name) pairs.  The crash family runs every
    algorithm x phase x size.  Combination ``i`` of the full sweep
    gets ``combo_seed(seed, i)``, so a filtered job keeps its seed.
    """
    from repro.campaign.spec import JobSpec  # lazy: soak is imported at
    # package init, the campaign worker imports this module back

    if family == "loss":
        points = [
            {"label": label, "algorithm": algorithm,
             "reliability": mode.name, "num_nodes": num_nodes,
             "intensity": intensity}
            for label, algorithm in algorithms
            for mode in (
                RELIABILITY_MODES if label.startswith("nic-")
                else RELIABILITY_MODES[:1]
            )
        ]
    else:
        points = [
            {"label": label, "algorithm": algorithm, "phase": phase,
             "crash_at_us": crash_at_us, "num_nodes": size}
            for label, algorithm in algorithms
            for phase, crash_at_us in phases
            for size in sizes
        ]
    jobs: List[JobSpec] = []
    for index, point in enumerate(points):
        reliability = point.get("reliability", "")
        if combos is not None and (point["label"], reliability) not in combos:
            continue
        name = _combo_name(family, point["label"], reliability,
                           point.get("phase"), point["num_nodes"])
        jobs.append(
            JobSpec(
                kind="soak",
                params={
                    "family": family,
                    "seed": combo_seed(seed, index),
                    **point,
                    "repetitions": repetitions,
                    "max_events": max_events,
                },
                tag=f"{family}-soak-{seed}/{name}",
            )
        )
    return jobs


def _run_sweep(family, seed, specs, **campaign) -> SoakResult:
    """Run soak jobs through the campaign executor; collect the rows.

    A safety or contract violation, or a
    :class:`~repro.nic.nic.RetransmitLimitExceeded` alarm, in any
    combination raises :class:`~repro.campaign.executor.CampaignJobError`
    carrying the failing combo's traceback.
    """
    from repro.campaign.executor import run_campaign

    result = run_campaign(specs, name=f"{family}-soak-{seed}", **campaign)
    rows = [SoakRow.from_dict(job.value)
            for job in result.raise_on_failure().results]
    return SoakResult(family=family, seed=seed, rows=rows)


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
    """Soak every barrier algorithm under seeded loss; see module doc.

    ``jobs`` worker processes and the optional content-addressed result
    cache are the campaign executor's.  A plan from
    :meth:`FaultPlan.random` is recoverable by construction, so a failure
    here means a real recovery-path bug.
    """
    specs = soak_jobs(seed, num_nodes, repetitions, intensity, max_events,
                      combos)
    return _run_sweep("loss", seed, specs, jobs=jobs, store=store,
                      cache_dir=cache_dir)


def run_crash_soak(
    seed: int,
    sizes=CRASH_SIZES,
    algorithms=ALGORITHMS,
    phases=CRASH_PHASES,
    repetitions: int = REPETITIONS,
    max_events: int = 5_000_000,
) -> SoakResult:
    """Sweep every (algorithm, phase, size) crash combination; see
    module doc.  Each combination gets its own splitmix-derived seed, so
    the victim and the event interleavings differ across the sweep but
    reproduce exactly from the soak seed."""
    specs = soak_jobs(seed, repetitions=repetitions, max_events=max_events,
                      family="crash", algorithms=algorithms, phases=phases,
                      sizes=sizes)
    return _run_sweep("crash", seed, specs)
