"""Crash soak: every barrier algorithm under a fail-stop node crash.

Where :mod:`repro.faults.soak` proves the reliability protocol recovers
from *message* loss, this harness proves the failure-detector /
shrink-and-resume stack recovers from *node* loss: each combination of
barrier algorithm x crash phase x cluster size builds a cluster whose
fault plan kills one node outright (host processes, NIC and cables) at a
pre-, mid- or post-barrier instant, then checks the fail-stop contract:

* **survivors always terminate** -- every surviving rank runs its
  barrier repetitions (aborting with a typed
  :class:`~repro.gm.events.PeerFailure` if the crash lands inside one),
  shrinks, and completes fresh barriers on whatever group the shrink
  agreed on; nothing ever hangs to a retransmission limit;
* **survivors agree** -- every rank that finishes holds an identical
  post-shrink group;
* **runs are deterministic** -- the same seed reproduces the same event
  count and final simulated time (asserted by the tests via
  :meth:`CrashSoakResult.signature`).

The program shape shrinks *unconditionally* after the barrier phase.
Failure observation is not collective -- a crash between dissemination
rounds can let some survivors complete the final barrier while others
abort it -- so making shrink conditional on having seen a
``PeerFailure`` would leave the observers gossiping with ranks that
already exited.  An unconditional shrink is also what a checkpointing
application's recovery driver does: everyone enters recovery, and on a
clean run it degenerates to a one-round agreement on the empty suspect
set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.soak import combo_seed
from repro.gm.events import PeerFailure
from repro.nic.nic import NicParams

#: (label, algorithm) -- every barrier flavour, driven through the
#: :class:`~repro.mpi.communicator.Communicator` so the shrink protocol
#: is exercised exactly as an application would use it.  ``host-*`` run
#: the host-based algorithms over plain sends, ``nic-*`` the NIC-based
#: engines, ``nbc-ibarrier`` the non-blocking schedule engine.
CRASH_ALGORITHMS = (
    ("host-gb", "gb"),
    ("host-pe", "pe"),
    ("nic-gb", "gb"),
    ("nic-pe", "pe"),
    ("nic-dissemination", "dissemination"),
    ("nbc-ibarrier", "nbc"),
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

#: Cluster sizes the soak sweeps (the acceptance scenario's 16 included).
CRASH_SIZES = (4, 8, 16)

#: Barriers attempted before the unconditional shrink, and run fresh on
#: the agreed group after it.
REPETITIONS = 3
POST_SHRINK_REPETITIONS = 2


@dataclass
class RankOutcome:
    """What one rank that finished its program experienced."""

    rank: int
    completed: int
    suspects: List[int]
    final_group: Tuple


@dataclass
class CrashSoakRow:
    """The outcome of one (algorithm, phase, size) combination."""

    label: str
    phase: str
    num_nodes: int
    seed: int
    victim: int
    crash_at_us: float
    observed_failure: bool
    shrunken_size: int
    final_time_us: float
    events: int
    suspects_declared: int

    def to_dict(self) -> dict:
        """A JSON-able dict (campaign ResultStore payload schema)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSoakRow":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class CrashSoakResult:
    """Everything one crash soak produced."""

    seed: int
    rows: List[CrashSoakRow] = field(default_factory=list)

    def signature(self) -> tuple:
        """A determinism fingerprint: same seed => identical signature."""
        return tuple(
            (r.label, r.phase, r.num_nodes, r.events,
             round(r.final_time_us, 6), r.shrunken_size)
            for r in self.rows
        )

    def table(self) -> str:
        """A fixed-width report table (``report.py --crashes``)."""
        header = (
            f"{'combo':<20} {'phase':<5} {'nodes':>5} {'victim':>6} "
            f"{'failed?':>7} {'shrunk':>6} {'t_final_us':>10} {'events':>8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.label:<20} {r.phase:<5} {r.num_nodes:>5} {r.victim:>6} "
                f"{('yes' if r.observed_failure else 'no'):>7} "
                f"{r.shrunken_size:>6} {r.final_time_us:>10.2f} "
                f"{r.events:>8}"
            )
        return "\n".join(lines)


def run_crash_combo(
    *,
    seed: int,
    label: str,
    algorithm: str,
    phase: str,
    crash_at_us: float,
    num_nodes: int,
    repetitions: int = REPETITIONS,
    max_events: int = 5_000_000,
) -> CrashSoakRow:
    """Run one algorithm under one fail-stop crash; see module doc.

    Raises ``AssertionError`` when any rank that finished violates the
    fail-stop contract (a hang is caught by ``run_on_group``'s deadlock
    check / ``max_events``; group disagreement is checked here).
    """
    from repro.mpi.communicator import Communicator
    from repro.sim.primitives import Timeout

    victim = seed % num_nodes
    plan = FaultPlan(
        seed=seed,
        crashes=[NodeCrash(node=victim, at_us=crash_at_us)],
    )
    nic_params = NicParams(
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
    outcomes: Dict[int, RankOutcome] = {}

    def one_barrier(ctx, comm):
        if algorithm == "nbc":
            request = yield from comm.ibarrier()
            for _ in range(4):
                yield from ctx.node.compute(10.0)
                yield from request.test()
            yield from request.wait()
        else:
            nic_based = label.startswith("nic-")
            old = comm.params
            comm.params = old.with_(nic_collectives=nic_based)
            try:
                yield from comm.barrier(algorithm=algorithm)
            finally:
                comm.params = old

    def program(ctx):
        # Deterministic per-rank stagger, like the message-loss soak.
        yield Timeout(float((ctx.rank * 7) % num_nodes))
        comm = Communicator(ctx.port, ctx.group, ctx.rank)
        completed = 0
        suspects: set = set()
        for _ in range(repetitions):
            try:
                yield from one_barrier(ctx, comm)
            except PeerFailure as failure:
                suspects = set(failure.suspects)
                ctx.port.acknowledge_failures(suspects)
                break
            completed += 1
        # Unconditional recovery (see module doc): on a clean run this
        # is a one-round agreement on the empty set and the "shrunken"
        # group is the whole group.
        yield from comm.shrink()
        for _ in range(POST_SHRINK_REPETITIONS):
            yield from one_barrier(ctx, comm)
            completed += 1
        outcomes[ctx.rank] = RankOutcome(
            rank=ctx.rank,
            completed=completed,
            suspects=sorted(suspects),
            final_group=comm.group,
        )

    run_on_group(cluster, program, max_events=max_events)

    survivors = [r for r in range(num_nodes) if r != victim]
    missing = [r for r in survivors if r not in outcomes]
    assert not missing, (
        f"crash soak {label}/{phase} seed={seed}: surviving ranks "
        f"{missing} never finished their program"
    )
    groups = {outcomes[r].final_group for r in survivors}
    assert len(groups) == 1, (
        f"crash soak {label}/{phase} seed={seed}: survivors disagree on "
        f"the post-shrink group: {sorted(groups)}"
    )
    final_group = groups.pop()
    observed = any(outcomes[r].suspects for r in survivors)
    shrunk = len(final_group) < num_nodes
    if shrunk:
        # The agreement may only ever exclude the victim.
        assert len(final_group) == num_nodes - 1 and not any(
            ep[0] == victim for ep in final_group
        ), (
            f"crash soak {label}/{phase} seed={seed}: shrunken group "
            f"{final_group} is not 'everyone but victim {victim}'"
        )
    for r in survivors:
        if outcomes[r].suspects:
            assert outcomes[r].suspects == [victim], (
                f"crash soak {label}/{phase} seed={seed}: rank {r} "
                f"raised PeerFailure for {outcomes[r].suspects}, not "
                f"victim {victim}"
            )
    declared = sum(
        len(node.nic.suspected_peers)
        for node in cluster.nodes
        if node.node_id != victim
    )
    return CrashSoakRow(
        label=label,
        phase=phase,
        num_nodes=num_nodes,
        seed=seed,
        victim=victim,
        crash_at_us=crash_at_us,
        observed_failure=observed,
        shrunken_size=len(final_group),
        final_time_us=cluster.sim.now,
        events=cluster.sim.events_executed,
        suspects_declared=declared,
    )


def run_crash_soak(
    seed: int,
    sizes=CRASH_SIZES,
    algorithms=CRASH_ALGORITHMS,
    phases=CRASH_PHASES,
    repetitions: int = REPETITIONS,
    max_events: int = 5_000_000,
) -> CrashSoakResult:
    """Sweep every (algorithm, phase, size) crash combination in-process.

    Each combination gets its own splitmix-derived seed, so the victim
    and the event interleavings differ across the sweep but reproduce
    exactly from the soak seed.
    """
    result = CrashSoakResult(seed=seed)
    index = 0
    for label, algorithm in algorithms:
        for phase, crash_at_us in phases:
            for num_nodes in sizes:
                result.rows.append(
                    run_crash_combo(
                        seed=combo_seed(seed, index),
                        label=label,
                        algorithm=algorithm,
                        phase=phase,
                        crash_at_us=crash_at_us,
                        num_nodes=num_nodes,
                        repetitions=repetitions,
                        max_events=max_events,
                    )
                )
                index += 1
    return result
