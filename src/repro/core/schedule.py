"""The collective schedule IR: every collective algorithm, written once.

A *schedule* is a compiled, data-independent description of one rank's
part in a collective: a sequence of **rounds**, each a tuple of
:class:`Op` primitives (sends, receives, local reductions and copies),
with an implicit barrier between rounds -- round ``r + 1`` starts only
after every receive of round ``r`` has landed and its local ops have
run.  This is the libNBC / libfabric ``FI_SCHEDULE`` idiom: compile the
collective once, then let an engine run it.

Four compilers are the only code in the package that computes peers:

* :func:`compile_recursive_doubling` -- MPICH's pairwise exchange with
  its pre/post phases for non-power-of-two groups: the PE barrier
  (no operator) and ``iallreduce`` (with one);
* :func:`compile_dissemination` -- the dissemination barrier and
  ``ibarrier``;
* :func:`compile_tree` -- the d-ary heap tree with an up phase, a down
  phase or both: the GB barrier and tree reduce, bcast and allreduce;
* :func:`compile_ibcast` -- the binomial ``ibcast``.

Three engines consume schedules: the blocking host walker
(:func:`repro.core.host_barrier.run_schedule`), the non-blocking
:class:`~repro.mpi.nbc.engine.ProgressEngine`, and the lowering to the
NIC's :class:`~repro.core.topology_calc.BarrierPlan`.

Data independence is what makes schedules cacheable: ops never embed
values, they reference named *slots* in a per-call buffer table (the
caller supplies ``{"acc": value}`` at start time).  Two calls to the
same collective on the same communicator therefore share one schedule
object -- see :mod:`repro.mpi.nbc.cache`.

Round alignment contract: every compiler here emits round numbers that
agree across ranks -- if rank ``p`` receives from rank ``q`` in round
``r``, then ``q`` sends to ``p`` in *its* round ``r``.  The progress
engine matches incoming messages by ``(epoch, seq, round, source)``, so
this invariant is what lets concurrent outstanding schedules on one
communicator stay isolated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple


def _none_is_identity(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def combine(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return fn(a, b)

    return combine


#: The reduction operators every engine (host walker, NBC progress
#: engine, NIC firmware) combines with; ``None`` acts as the identity.
REDUCE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": _none_is_identity(operator.add),
    "prod": _none_is_identity(operator.mul),
    "max": _none_is_identity(max),
    "min": _none_is_identity(min),
}


def check_reduce_op(op: str) -> None:
    """Raise ``ValueError`` unless ``op`` names a :data:`REDUCE_OPS` entry."""
    if op not in REDUCE_OPS:
        raise ValueError(f"unknown reduce operator {op!r}")


@dataclass(frozen=True)
class Op:
    """One schedule primitive.

    ``kind`` selects the flavour:

    * ``"send"`` -- send the value in ``slot`` (``None`` = a pure
      notification with no payload) to rank ``peer``;
    * ``"recv"`` -- await a message from rank ``peer``, storing its
      payload into ``slot`` (``None`` discards it);
    * ``"reduce"`` -- after the round's receives land, combine
      ``dst = REDUCE_OPS[op](dst, src)``;
    * ``"copy"`` -- after the round's receives land, ``dst = src``.

    ``tag`` names the message's phase ("pe", "dis", "gather", "reduce",
    "bcast") for the blocking host walker, which matches messages by
    source and tag; the progress engine matches by round instead.
    """

    kind: str
    peer: Optional[int] = None
    slot: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    op: Optional[str] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("send", "recv", "reduce", "copy"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind in ("send", "recv") and self.peer is None:
            raise ValueError(f"{self.kind} op needs a peer rank")
        if self.kind == "reduce":
            check_reduce_op(self.op)
        if self.kind in ("reduce", "copy") and (
            self.src is None or self.dst is None
        ):
            raise ValueError(f"{self.kind} op needs src and dst slots")


#: A round: ops that may all be in flight concurrently.
Round = Tuple[Op, ...]


@dataclass(frozen=True)
class Schedule:
    """One rank's compiled collective (immutable, hence cache-shareable).

    ``signature`` is the canonical cache key the schedule was compiled
    under (see :func:`schedule_signature`); ``result_slot`` names the
    buffer slot holding the collective's result once every round has
    completed (``None`` for pure synchronization).
    """

    kind: str
    signature: tuple
    rounds: Tuple[Round, ...]
    result_slot: Optional[str] = None

    @property
    def num_rounds(self) -> int:
        """Round count (the schedule's depth)."""
        return len(self.rounds)

    @property
    def num_sends(self) -> int:
        """Total send ops across every round."""
        return sum(1 for r in self.rounds for op in r if op.kind == "send")

    @property
    def num_recvs(self) -> int:
        """Total recv ops across every round."""
        return sum(1 for r in self.rounds for op in r if op.kind == "recv")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Schedule {self.kind} rounds={self.num_rounds} "
            f"sends={self.num_sends} recvs={self.num_recvs}>"
        )


def run_local_ops(ops: Round, buffers: Dict[str, Any]) -> None:
    """Run a completed round's reduce/copy ops on ``buffers``, in op order."""
    for op in ops:
        if op.kind == "reduce":
            buffers[op.dst] = REDUCE_OPS[op.op](buffers[op.dst], buffers[op.src])
        elif op.kind == "copy":
            buffers[op.dst] = buffers[op.src]


def schedule_signature(
    kind: str,
    size: int,
    rank: int,
    *,
    op: Optional[str] = None,
    root: Optional[int] = None,
    dimension: Optional[int] = None,
) -> tuple:
    """The canonical cache key for a compiled schedule.

    Everything a compiler's output depends on is in the key -- and
    nothing else (values, tags and request sequence numbers are runtime
    state, not schedule shape).  The communicator's epoch is *not* part
    of the signature: reconfiguration invalidates the whole cache
    instead (see :meth:`repro.mpi.nbc.cache.ScheduleCache.invalidate`).
    """
    return (kind, size, rank, op, root, dimension)


def _validate(size: int, rank: int) -> None:
    if size < 1:
        raise ValueError("collective group must have at least 1 rank")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")


# ---------------------------------------------------------------------------
# compilers
# ---------------------------------------------------------------------------
def compile_recursive_doubling(
    size: int, rank: int, op: Optional[str] = None, kind: str = "pe"
) -> Schedule:
    """Recursive doubling: the PE barrier, or an allreduce given ``op``.

    Power-of-two groups pair up: round ``r`` exchanges with rank
    ``rank XOR 2^r`` (Section 5.1: nodes pair up, exchange, groups
    merge, repeat), folding the received value into ``"acc"`` when
    there is an operator.  Non-power-of-two groups use the MPICH
    pre/post phases: with ``m`` the largest power of two ``<= n``, the
    ``n - m`` *extra* ranks (``>= m``) first notify (or donate their
    value to) a proxy ``rank - m``, sit out the doubling, and are
    released (or handed the result) in the last round.
    """
    _validate(size, rank)
    if op is not None:
        check_reduce_op(op)
    value = None if op is None else "acc"
    m = 1 << (size.bit_length() - 1)

    def send(peer: int) -> Op:
        return Op("send", peer=peer, slot=value, tag="pe")

    def recv_and_fold(peer: int, slot: str) -> Round:
        if op is None:
            return (Op("recv", peer=peer, tag="pe"),)
        return (
            Op("recv", peer=peer, slot=slot, tag="pe"),
            Op("reduce", src=slot, dst="acc", op=op),
        )

    extra = rank + m if rank + m < size else None
    rounds: List[Round] = []
    if size > m:
        # Pre-phase: extras notify (donate to) their proxy.
        if rank >= m:
            rounds.append((send(rank - m),))
        else:
            rounds.append(() if extra is None else recv_and_fold(extra, "pre"))
    distance = 1
    while distance < m:
        if rank < m:
            peer = rank ^ distance
            rounds.append((send(peer),) + recv_and_fold(peer, f"in{len(rounds)}"))
        else:
            rounds.append(())
        distance *= 2
    if size > m:
        # Post-phase: proxies release (hand the result to) their extra.
        if rank >= m:
            rounds.append((Op("recv", peer=rank - m, slot=value, tag="pe"),))
        else:
            rounds.append(() if extra is None else (send(extra),))
    return Schedule(
        kind=kind,
        signature=schedule_signature(kind, size, rank, op=op),
        rounds=tuple(rounds),
        result_slot=value,
    )


def compile_dissemination(
    size: int, rank: int, kind: str = "dissemination"
) -> Schedule:
    """Dissemination (Hensgen/Finkel/Manber): the ``NBC_Ibarrier`` shape.

    Round ``k`` sends a notification to ``(rank + 2^k) mod n`` and
    receives one from ``(rank - 2^k) mod n``; after ``ceil(log2 n)``
    rounds this rank has transitively heard from everyone.  Unlike PE it
    needs no proxy steps for non-power-of-two sizes.
    """
    _validate(size, rank)
    rounds = []
    distance = 1
    while distance < size:
        rounds.append((
            Op("send", peer=(rank + distance) % size, tag="dis"),
            Op("recv", peer=(rank - distance) % size, tag="dis"),
        ))
        distance *= 2
    return Schedule(
        kind=kind,
        signature=schedule_signature(kind, size, rank),
        rounds=tuple(rounds),
    )


#: compile_tree kind -> (up phase, down phase).
TREE_PHASES: Dict[str, Tuple[bool, bool]] = {
    "barrier": (True, True),
    "reduce": (True, False),
    "bcast": (False, True),
    "allreduce": (True, True),
}


@lru_cache(maxsize=None)
def compile_tree(
    size: int,
    rank: int,
    dimension: Optional[int] = None,
    kind: str = "barrier",
    op: str = "sum",
) -> Schedule:
    """The ``dimension``-ary heap tree rooted at rank 0.

    Node ``i``'s children are ``d*i + 1 .. d*i + d``; ``dimension = 1``
    is a chain and ``dimension = size - 1`` a flat star, the two
    extremes the paper sweeps between.  ``None`` picks a binary tree
    (a chain below three ranks).

    ``kind`` selects the phases (:data:`TREE_PHASES`): ``"barrier"``
    gathers notifications up the tree and broadcasts the release down;
    ``"reduce"`` carries values up, folding children into ``"acc"`` with
    ``op`` (the result lands at the root only); ``"bcast"`` carries the
    root's ``"acc"`` down; ``"allreduce"`` does both.

    Rounds are depth-aligned: with tree height ``H``, up round ``k``
    moves messages from depth ``H - k`` to ``H - k - 1`` and down round
    ``k`` from depth ``k`` to ``k + 1`` (after the ``H`` up rounds when
    both phases run), which keeps the round-alignment contract.
    """
    _validate(size, rank)
    if kind not in TREE_PHASES:
        raise ValueError(f"unknown tree collective {kind!r}")
    if dimension is None:
        dimension = 2 if size > 2 else 1
    if size > 1 and not 1 <= dimension <= size - 1:
        raise ValueError(f"dimension must be in 1..{size - 1}, got {dimension}")
    up, down = TREE_PHASES[kind]
    folds = kind in ("reduce", "allreduce")
    if folds:
        check_reduce_op(op)
    value = None if kind == "barrier" else "acc"
    up_tag = "gather" if kind == "barrier" else "reduce"

    def parent_of(r: int) -> int:
        return (r - 1) // dimension

    def depth(r: int) -> int:
        levels = 0
        while r:
            r = parent_of(r)
            levels += 1
        return levels

    height, level = depth(size - 1), depth(rank)
    parent = parent_of(rank) if rank else None
    first = dimension * rank + 1
    children = range(first, min(first + dimension, size))
    rounds: List[Round] = [()] * (height * up + height * down)
    if up:
        if children:
            recvs = tuple(
                Op("recv", peer=c, slot=f"in{i}" if folds else None, tag=up_tag)
                for i, c in enumerate(children)
            )
            if folds:
                recvs += tuple(
                    Op("reduce", src=f"in{i}", dst="acc", op=op)
                    for i in range(len(children))
                )
            rounds[height - level - 1] = recvs
        if parent is not None:
            rounds[height - level] = (
                Op("send", peer=parent, slot=value, tag=up_tag),
            )
    if down:
        base = height if up else 0
        if parent is not None:
            rounds[base + level - 1] = (
                Op("recv", peer=parent, slot=value, tag="bcast"),
            )
        if children:
            rounds[base + level] = tuple(
                Op("send", peer=c, slot=value, tag="bcast") for c in children
            )
    return Schedule(
        kind=kind,
        signature=schedule_signature(
            kind, size, rank, op=op if folds else None, dimension=dimension
        ),
        rounds=tuple(rounds),
        result_slot=value if down or rank == 0 else None,
    )


def compile_ibcast(size: int, rank: int, root: int = 0) -> Schedule:
    """Binomial-tree Ibcast rooted at ``root``.

    In round ``r`` every virtual rank below ``2^r`` forwards the value
    to virtual rank ``+2^r``; a non-root rank with highest set bit
    ``2^j`` therefore receives exactly once, in round ``j``, and relays
    in every later round its subtree needs.  The result lives in slot
    ``"val"`` (the root seeds it at request start).
    """
    _validate(size, rank)
    if not 0 <= root < size:
        raise ValueError(f"root {root} out of range for size {size}")
    vrank = (rank - root) % size

    def actual(v: int) -> int:
        return (v + root) % size

    rounds = []
    recv_round = -1 if vrank == 0 else vrank.bit_length() - 1
    for r in range((size - 1).bit_length()):
        ops = []
        if r == recv_round:
            ops.append(
                Op("recv", peer=actual(vrank - (1 << r)), slot="val", tag="bcast")
            )
        elif r > recv_round and vrank + (1 << r) < size:
            ops.append(
                Op("send", peer=actual(vrank + (1 << r)), slot="val", tag="bcast")
            )
        rounds.append(tuple(ops))
    return Schedule(
        kind="ibcast",
        signature=schedule_signature("ibcast", size, rank, root=root),
        rounds=tuple(rounds),
        result_slot="val",
    )


def compile_ibarrier(size: int, rank: int) -> Schedule:
    """Ibarrier: the dissemination schedule under the NBC kind name."""
    return compile_dissemination(size, rank, kind="ibarrier")


def compile_iallreduce(size: int, rank: int, op: str = "sum") -> Schedule:
    """Iallreduce: recursive doubling with ``op``; result in ``"acc"``."""
    return compile_recursive_doubling(size, rank, op=op, kind="iallreduce")


#: NBC kind -> compiler; the dispatch table the schedule cache compiles
#: through.
COMPILERS: Dict[str, Callable[..., Schedule]] = {
    "ibarrier": compile_ibarrier,
    "ibcast": compile_ibcast,
    "iallreduce": compile_iallreduce,
}


@lru_cache(maxsize=None)
def compile_barrier(
    size: int, rank: int, algorithm: str = "pe", dimension: Optional[int] = None
) -> Schedule:
    """The barrier schedule for ``algorithm`` ("pe", "dissemination", "gb").

    Memoized, like :func:`compile_tree`: schedules are immutable and the
    blocking paths recompile the same shape on every call."""
    if algorithm == "pe":
        return compile_recursive_doubling(size, rank)
    if algorithm == "dissemination":
        return compile_dissemination(size, rank)
    if algorithm == "gb":
        return compile_tree(size, rank, dimension)
    raise ValueError(f"unknown barrier algorithm {algorithm!r}")
