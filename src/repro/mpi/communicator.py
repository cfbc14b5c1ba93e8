"""The MPI-flavoured communicator.

One :class:`Communicator` per rank, wrapping that rank's GM port.  All
operations are host generators (like the GM API they sit on).  Message
matching follows MPI: by (source rank, tag) with FIFO order per pair and
``ANY_SOURCE`` / ``ANY_TAG`` wildcards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.barrier import barrier as nic_barrier
from repro.core.collectives import allreduce as nic_allreduce
from repro.core.collectives import bcast as nic_bcast
from repro.core.collectives import reduce as nic_reduce
from repro.core.host_barrier import (
    host_allreduce,
    host_barrier,
    host_bcast,
    host_reduce,
)
from repro.gm.api import GmPort
from repro.gm.events import PeerFailure, RecvEvent
from repro.mpi.nbc.engine import ProgressEngine

Endpoint = Tuple[int, int]

#: MPI wildcards.
ANY_SOURCE = -1
ANY_TAG = -1

#: Default tag for untagged operations.
DEFAULT_TAG = 0

#: Reserved tag of the shrink agreement protocol (gather uses 17,
#: scatter 18).
SHRINK_TAG = 19


@dataclass(frozen=True)
class MpiParams:
    """Cost model of the MPI layer itself.

    The values approximate the MPICH-over-GM overheads of the era: every
    entry into an MPI call costs ``call_overhead_us`` of host CPU, and
    every message sent or received *through the layer* adds
    ``per_message_overhead_us`` (envelope construction, queue search,
    request bookkeeping).
    """

    call_overhead_us: float = 2.5
    per_message_overhead_us: float = 4.0
    #: Standing receive-buffer pool per communicator.
    recv_pool: int = 16
    #: Use the NIC-based implementations for collectives and barriers.
    nic_collectives: bool = True
    #: Stall-watchdog period for outstanding non-blocking collectives.
    nbc_watchdog_us: float = 2_000.0

    def with_(self, **changes) -> "MpiParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class Communicator:
    """An MPI_COMM_WORLD-style communicator for one rank."""

    def __init__(
        self,
        port: GmPort,
        group: Sequence[Endpoint],
        rank: int,
        params: Optional[MpiParams] = None,
    ) -> None:
        if not 0 <= rank < len(group):
            raise ValueError(f"rank {rank} out of range")
        if port.endpoint != tuple(group[rank]):
            raise ValueError(
                f"port endpoint {port.endpoint} is not group[{rank}]"
            )
        self.port = port
        self.group = tuple(group)
        self.rank = rank
        self.params = params or MpiParams()
        self._pool_primed = False
        #: Lazily-built non-blocking progress engine (with its cache).
        self._nbc: Optional["ProgressEngine"] = None
        #: Persistent round counter of the shrink agreement protocol.
        #: It never resets, so repeated (even interleaved) shrink calls
        #: keep every rank's rounds aligned and stale round messages
        #: remain skippable by their round number.
        self._shrink_round = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.group)

    def _charge_call(self):
        yield from self.port.node.cpu_charges[self.params.call_overhead_us]

    def _charge_message(self):
        yield from self.port.node.cpu_charges[self.params.per_message_overhead_us]

    def _prime_pool(self):
        if not self._pool_primed:
            self._pool_primed = True
            yield from self.port.ensure_receive_buffers(self.params.recv_pool)

    def _endpoint(self, rank: int) -> Endpoint:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range (size {self.size})")
        return self.group[rank]

    def _rank_of(self, endpoint: Endpoint) -> int:
        return self.group.index(endpoint)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any = None, tag: int = DEFAULT_TAG,
             size_bytes: int = 64):
        """MPI_Send (host generator)."""
        yield from self._charge_call()
        yield from self._charge_message()
        dst = self._endpoint(dest)
        yield from self.port.send_with_callback(
            dst_node=dst[0], dst_port=dst[1], size_bytes=size_bytes,
            payload={"mpi_tag": tag, "mpi_payload": payload},
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_Recv (host generator); returns (payload, source_rank, tag)."""
        yield from self._charge_call()
        yield from self._prime_pool()
        src_ep = None if source == ANY_SOURCE else self._endpoint(source)
        if src_ep is not None and src_ep[0] in self.port.nic.suspected_peers:
            # A receive from a declared-failed node can never complete;
            # raising here (even for acknowledged suspects) keeps the
            # never-hang contract for naive retry loops.
            raise PeerFailure(self.port.node.node_id, {src_ep[0]})

        def matches(ev) -> bool:
            if not (isinstance(ev, RecvEvent) and isinstance(ev.payload, dict)):
                return False
            if "mpi_tag" not in ev.payload:
                return False
            if src_ep is not None and (ev.src_node, ev.src_port) != src_ep:
                return False
            if tag != ANY_TAG and ev.payload["mpi_tag"] != tag:
                return False
            return True

        ev = yield from self.port.receive_where(matches)
        yield from self._charge_message()
        # Replenish the consumed buffer to keep the pool at strength.
        yield from self.port.provide_receive_buffer()
        return (
            ev.payload["mpi_payload"],
            self._rank_of((ev.src_node, ev.src_port)),
            ev.payload["mpi_tag"],
        )

    def sendrecv(self, dest: int, payload: Any = None,
                 source: int = ANY_SOURCE, tag: int = DEFAULT_TAG):
        """MPI_Sendrecv: send then receive (host generator)."""
        yield from self.send(dest, payload, tag)
        result = yield from self.recv(source, tag)
        return result

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self, algorithm: str = "pe", dimension: Optional[int] = None):
        """MPI_Barrier (host generator).

        With ``nic_collectives`` the layer's overhead is paid **once**;
        the host-based fallback pays per-message layer overhead on every
        step -- Equation 3's reason the NIC-based factor of improvement
        grows under MPI.
        """
        yield from self._charge_call()
        if self.size == 1:
            return
        if self.params.nic_collectives:
            yield from self._charge_message()
            yield from nic_barrier(
                self.port, self.group, self.rank,
                algorithm=algorithm, dimension=dimension,
            )
        else:
            yield from self._mpi_host_barrier(algorithm, dimension)

    def _mpi_host_barrier(self, algorithm: str, dimension: Optional[int]):
        """Host-based barrier with the layer's per-message costs applied
        to every underlying message (the MPICH-over-GM situation)."""
        extra = self.params.per_message_overhead_us
        old = self.port.node.params
        # Charge the layer's per-message cost via the host-params hook the
        # analytic model also uses.
        self.port.node.params = old.with_(
            extra_overhead_us=old.extra_overhead_us + extra
        )
        try:
            yield from host_barrier(
                self.port, self.group, self.rank,
                algorithm=algorithm, dimension=dimension,
            )
        finally:
            self.port.node.params = old

    def bcast(self, value: Any = None, root: int = 0,
              dimension: Optional[int] = None):
        """MPI_Bcast (host generator); returns the root's value."""
        yield from self._charge_call()
        if self.size == 1:
            return value
        group, rank = self._rooted(root)
        if self.params.nic_collectives:
            yield from self._charge_message()
            result = yield from nic_bcast(
                self.port, group, rank, value=value, dimension=dimension
            )
        else:
            result = yield from host_bcast(
                self.port, group, rank, value=value, dimension=dimension
            )
        return result

    def reduce(self, value: Any, op: str = "sum", root: int = 0,
               dimension: Optional[int] = None):
        """MPI_Reduce (host generator); result at ``root``, None elsewhere."""
        yield from self._charge_call()
        if self.size == 1:
            return value
        group, rank = self._rooted(root)
        if self.params.nic_collectives:
            yield from self._charge_message()
            result = yield from nic_reduce(
                self.port, group, rank, value=value, op=op, dimension=dimension
            )
        else:
            result = yield from host_reduce(
                self.port, group, rank, value=value, op=op, dimension=dimension
            )
        return result

    def allreduce(self, value: Any, op: str = "sum",
                  dimension: Optional[int] = None):
        """MPI_Allreduce (host generator); every rank gets the result."""
        yield from self._charge_call()
        if self.size == 1:
            return value
        if self.params.nic_collectives:
            yield from self._charge_message()
            result = yield from nic_allreduce(
                self.port, self.group, self.rank, value=value, op=op,
                dimension=dimension,
            )
        else:
            result = yield from host_allreduce(
                self.port, self.group, self.rank, value=value, op=op,
                dimension=dimension,
            )
        return result

    def gather(self, value: Any, root: int = 0, tag: int = 17):
        """MPI_Gather over point-to-point (host generator).

        Returns the list of values in rank order at ``root``, else None.
        """
        yield from self._charge_call()
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[self.rank] = value
            for _ in range(self.size - 1):
                payload, src, _ = yield from self.recv(ANY_SOURCE, tag)
                out[src] = payload
            return out
        yield from self.send(root, value, tag)
        return None

    def scatter(self, values: Optional[Sequence[Any]] = None, root: int = 0,
                tag: int = 18):
        """MPI_Scatter over point-to-point (host generator).

        ``values`` (rank-indexed, given at the root) are distributed;
        every rank returns its element.
        """
        yield from self._charge_call()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError("root must supply one value per rank")
            for r in range(self.size):
                if r != root:
                    yield from self.send(r, values[r], tag)
            return values[root]
        payload, _, _ = yield from self.recv(root, tag)
        return payload

    # ------------------------------------------------------------------
    # Non-blocking collectives (repro.mpi.nbc)
    # ------------------------------------------------------------------
    @property
    def nbc(self) -> ProgressEngine:
        """The communicator's non-blocking progress engine (built lazily
        with its per-communicator schedule cache on first use)."""
        if self._nbc is None:
            self._nbc = ProgressEngine(self)
        return self._nbc

    def ibarrier(self):
        """MPI_Ibarrier (host generator); returns a
        :class:`~repro.mpi.nbc.engine.Request` immediately.

        The dissemination schedule's rounds then progress inside
        ``request.test()`` / ``request.wait()`` while the caller
        computes -- the communication/computation overlap the blocking
        :meth:`barrier` cannot offer.
        """
        yield from self._charge_call()
        request = yield from self.nbc.start_collective(self, "ibarrier")
        return request

    def ibcast(self, value: Any = None, root: int = 0):
        """MPI_Ibcast (host generator); returns a Request whose
        ``wait()`` yields the root's value on every rank."""
        yield from self._charge_call()
        request = yield from self.nbc.start_collective(
            self, "ibcast", value=value, root=root
        )
        return request

    def iallreduce(self, value: Any, op: str = "sum"):
        """MPI_Iallreduce (host generator); returns a Request whose
        ``wait()`` yields the reduction over every rank's ``value``."""
        yield from self._charge_call()
        request = yield from self.nbc.start_collective(
            self, "iallreduce", value=value, op=op
        )
        return request

    def reconfigure(self, group: Sequence[Endpoint], rank: int) -> None:
        """Replace the communicator's group/rank in place (the
        MPI_Comm_split-style reshape every rank performs collectively).

        Every cached schedule is compiled against the old shape, so the
        schedule cache is invalidated and its epoch bumped -- stray
        in-flight messages from the old group can never match a
        post-reconfiguration schedule.  Refused while non-blocking
        requests are outstanding (their schedules reference old ranks).
        """
        if self._nbc is not None and self._nbc.outstanding:
            raise RuntimeError(
                "cannot reconfigure with outstanding non-blocking requests"
            )
        if not 0 <= rank < len(group):
            raise ValueError(f"rank {rank} out of range")
        if self.port.endpoint != tuple(group[rank]):
            raise ValueError(
                f"port endpoint {self.port.endpoint} is not group[{rank}]"
            )
        self.group = tuple(group)
        self.rank = rank
        if self._nbc is not None:
            self._nbc.on_reconfigure()

    # ------------------------------------------------------------------
    # Fail-stop recovery (ULFM-style shrink)
    # ------------------------------------------------------------------
    def _known_suspects(self, group_nodes: set) -> set:
        """Group-member node ids this rank's NIC has declared failed."""
        nic = self.port.nic
        suspects = set(nic.suspected_peers)
        if nic.detector is not None:
            suspects |= nic.detector.suspects
        return suspects & group_nodes

    def shrink(self):
        """ULFM-style recovery: agree on the survivor set and resume on
        the shrunken group (host generator; returns the new group).

        Survivors gossip suspect sets all-to-all in rounds over a
        reserved tag: each round sends this rank's current set to every
        presumed-live peer, then collects theirs, taking the union.  A
        :class:`~repro.gm.events.PeerFailure` raised mid-round (a peer
        died, or was found dead, during the exchange) merges the new
        suspects and forces another round.  The protocol terminates when
        every received set equals the sent one -- suspect sets are
        monotone and bounded by the group, and all-to-all exchange makes
        agreement symmetric: either every rank sees identical sets and
        stops, or none does.  Afterwards survivors re-rank in old-group
        order and :meth:`reconfigure` bumps the NBC epoch, fencing off
        any in-flight messages from the dead (or the old shape).

        Caveat (shared with real ULFM shrinks): a node that dies *after*
        sending its final-round agreement message may leave survivors
        with a group that still contains it; the next operation then
        raises :class:`PeerFailure` again and a second ``shrink()``
        converges.  Outstanding non-blocking requests are aborted
        (``request.aborted``) -- their schedules reference dead ranks.
        """
        yield from self._charge_call()
        port = self.port
        if port.nic.crashed:
            raise RuntimeError(
                "cannot shrink through a crashed NIC (the host survived a "
                "NicCrash, but this node has no fabric access left)"
            )
        if self._nbc is not None and self._nbc.outstanding:
            self._nbc.abort_outstanding()
        group_nodes = {ep[0] for ep in self.group}
        own_node = self.group[self.rank][0]
        suspects = self._known_suspects(group_nodes)
        suspects.discard(own_node)
        port.acknowledge_failures(suspects)
        yield from self._prime_pool()
        while True:
            self._shrink_round += 1
            rnd = self._shrink_round
            peers = [
                r for r in range(self.size)
                if r != self.rank and self.group[r][0] not in suspects
            ]
            payload = {"round": rnd, "suspects": sorted(suspects)}
            for r in peers:
                yield from self.send(r, dict(payload), SHRINK_TAG,
                                     size_bytes=32)
            agreed = True
            for r in peers:
                if self.group[r][0] in suspects:
                    continue  # learned of this peer's death mid-round
                try:
                    while True:
                        msg, _, _ = yield from self.recv(r, SHRINK_TAG)
                        if msg["round"] >= rnd:
                            break
                        # else: a stale round's message (we advanced past
                        # it on a PeerFailure); per-pair FIFO lets us skip.
                except PeerFailure as failure:
                    port.acknowledge_failures(failure.suspects)
                    fresh = set(failure.suspects) & group_nodes
                    fresh.discard(own_node)
                    suspects |= fresh
                    agreed = False
                    continue
                their = set(msg["suspects"]) & group_nodes
                their.discard(own_node)
                if their != suspects:
                    suspects |= their
                    agreed = False
            if agreed:
                break
        survivors = tuple(
            ep for ep in self.group if ep[0] not in suspects
        )
        new_rank = survivors.index(self.group[self.rank])
        self.reconfigure(survivors, new_rank)
        tracer = port.nic.tracer
        if tracer is not None:
            tracer.record(
                f"host{port.node.node_id}", "comm.shrink",
                round=self._shrink_round, rank=new_rank,
                size=len(survivors), suspects=sorted(suspects),
            )
        return survivors

    # ------------------------------------------------------------------
    def _rooted(self, root: int):
        """Rotate the group so ``root`` is rank 0 (tree collectives are
        rooted at group index 0)."""
        if root == 0:
            return self.group, self.rank
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range")
        rotated = self.group[root:] + self.group[:root]
        return rotated, (self.rank - root) % self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator rank={self.rank}/{self.size}>"
