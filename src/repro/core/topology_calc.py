"""Host-side barrier plan computation: schedules lowered for the NIC.

The paper keeps the combinatorics on the host (Section 5.1): "The host at
a particular node needs to inform the NIC only of the children and parent
of the node, rather than all the nodes in the barrier."  A
:class:`BarrierPlan` is exactly that neighborhood for one participant,
obtained by *lowering* the rank's compiled schedule
(:mod:`repro.core.schedule`) into what the NIC firmware runs:

* PE and dissemination become a list of :class:`~repro.gm.tokens.PeStep`
  entries.  Each round contributes its sends, then its receives, as
  send-only and recv-only steps; a send-only step followed immediately
  by a recv-only step to the same peer fuses into one exchange step
  (wire-equivalent, and one firmware pass instead of two).  That single
  rule yields PE's pairwise exchanges, the extra rank's fused
  notify-then-wait, and the dissemination rounds whose send and receive
  peers coincide.
* GB becomes the parent and ordered children of the tree's gather phase.

Plans take the barrier *group* as an ordered list of endpoints
``(node_id, port_id)``; a participant's rank is its index in that list.
All participants must pass the same list (standard collective contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, compile_barrier
from repro.gm.tokens import PeStep

Endpoint = Tuple[int, int]


@dataclass(frozen=True)
class BarrierPlan:
    """One participant's neighborhood for a barrier instance.

    For PE: ``steps`` is the exchange order (``parent``/``children`` empty).
    For GB: ``parent`` is None at the root; ``children`` ordered.
    """

    algorithm: str
    rank: int
    group_size: int
    steps: Tuple[PeStep, ...] = ()
    parent: Optional[Endpoint] = None
    children: Tuple[Endpoint, ...] = ()

    @property
    def peers(self) -> Tuple[Endpoint, ...]:
        """PE: the endpoints touched, in step order."""
        return tuple(s.peer for s in self.steps)

    @property
    def is_root(self) -> bool:
        """GB: True at the root of the tree."""
        return self.algorithm == "gb" and self.parent is None


def _validate_group(group: Sequence[Endpoint], rank: int) -> None:
    if not group:
        raise ValueError("empty barrier group")
    if len(set(group)) != len(group):
        raise ValueError("duplicate endpoints in barrier group")
    if not 0 <= rank < len(group):
        raise ValueError(f"rank {rank} out of range for group of {len(group)}")


def _lower(schedule: Schedule, group: Sequence[Endpoint], rank: int) -> BarrierPlan:
    n = len(group)
    if schedule.kind == "barrier":  # the GB tree
        gather = [op for ops in schedule.rounds for op in ops if op.tag == "gather"]
        return BarrierPlan(
            algorithm="gb",
            rank=rank,
            group_size=n,
            parent=next((group[op.peer] for op in gather if op.kind == "send"), None),
            children=tuple(group[op.peer] for op in gather if op.kind == "recv"),
        )
    steps: List[PeStep] = []
    for ops in schedule.rounds:
        sends = [op for op in ops if op.kind == "send"]
        for op in sends + [op for op in ops if op.kind == "recv"]:
            peer = group[op.peer]
            if op.kind == "recv" and steps and steps[-1] == PeStep(peer, recv=False):
                steps[-1] = PeStep(peer)  # fuse send-then-recv into an exchange
            else:
                steps.append(PeStep(peer, send=op.kind == "send", recv=op.kind == "recv"))
    return BarrierPlan(algorithm="pe", rank=rank, group_size=n, steps=tuple(steps))


def make_plan(
    group: Sequence[Endpoint],
    rank: int,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
) -> BarrierPlan:
    """This rank's barrier plan for ``algorithm`` ("pe", "dissemination",
    "gb"); ``dimension`` picks the GB tree's fan-out (``None``: binary)."""
    return _cached_plan(tuple(group), rank, algorithm, dimension)


@lru_cache(maxsize=None)
def _cached_plan(
    group: Tuple[Endpoint, ...], rank: int, algorithm: str, dimension: Optional[int]
) -> BarrierPlan:
    # Plans are immutable, and every barrier call asks for the same one.
    _validate_group(group, rank)
    return _lower(compile_barrier(len(group), rank, algorithm, dimension), group, rank)


def pe_plan(group: Sequence[Endpoint], rank: int) -> BarrierPlan:
    """PE plan: pure exchanges for power-of-two groups, plus the MPICH
    notify/release steps (recv-only/send-only at a proxy, one fused
    exchange at an extra rank) otherwise."""
    return make_plan(group, rank, "pe")


def dissemination_plan(group: Sequence[Endpoint], rank: int) -> BarrierPlan:
    """Dissemination plan, run by the NIC PE engine (``algorithm`` "pe"):
    each round is a send-only step to the +2^k peer and a recv-only step
    on the -2^k peer, fused when the two coincide."""
    return make_plan(group, rank, "dissemination")


def gb_plan(
    group: Sequence[Endpoint], rank: int, dimension: Optional[int]
) -> BarrierPlan:
    """GB plan: parent/children endpoints in the ``dimension``-ary tree."""
    return make_plan(group, rank, "gb", dimension)
