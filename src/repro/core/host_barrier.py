"""Host-based baselines (the paper's comparison point): barriers and data
collectives run entirely at the host over plain GM point-to-point
messages.

Every intermediate message crosses the PCI bus twice and waits for the
host's polling loop, which is precisely the per-step cost the NIC-based
barrier eliminates (Figure 2a vs 2b), and every data-collective hop pays
the full Send + SDMA + Network + Recv + RDMA + HRecv path of Equation 1.

All of them are one blocking walker, :func:`run_schedule`, over a
schedule compiled by :mod:`repro.core.schedule`.  The walker is kept
apart from the non-blocking :class:`~repro.mpi.nbc.engine.ProgressEngine`
on purpose: the engine wraps every message in a 16 B / 64 B envelope,
while these baselines send 0-byte notifications and ``payload_bytes``
values, the message sizes the paper's host rows were measured with.

Host-side message matching: messages may arrive out of order relative to
the algorithm's expectations (a fast peer's next-step message lands before
the slow peer's current-step one), so events are matched by source
endpoint + phase tag via ``GmPort.receive_where`` and its stash.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, compile_barrier, compile_tree, run_local_ops
from repro.gm.api import GmPort
from repro.gm.events import RecvEvent

Endpoint = Tuple[int, int]


def _recv_from(port: GmPort, src: Endpoint, tag: str):
    """Wait for a message from ``src`` with phase tag ``tag`` (host
    generator -> the event).

    Returns ``receive_where``'s generator itself, so a ``yield from``
    resumes no pass-through frame.
    """
    return port.receive_where(
        lambda ev: isinstance(ev, RecvEvent)
        and (ev.src_node, ev.src_port) == src
        and isinstance(ev.payload, dict)
        and ev.payload.get("tag") == tag
    )


def run_schedule(
    port: GmPort,
    group: Sequence[Endpoint],
    schedule: Schedule,
    buffers: Optional[Dict[str, Any]] = None,
    payload_bytes: int = 0,
):
    """Run ``schedule`` to completion, blocking (host generator -> the
    value in the schedule's result slot, or ``None``).

    Each round issues its sends in op order, then awaits its receives in
    op order, then runs its reduce/copy ops.  A send of a slot carries
    ``{"tag", "value"}`` in a ``payload_bytes`` message; a pure
    notification carries ``{"tag"}`` in 0 bytes, like the NIC-based
    barrier's logical payload (the wire still carries the header).  A
    one-rank group makes no GM call at all.
    """
    buffers = {} if buffers is None else buffers
    if len(group) > 1:
        # Keep a standing pool of twice the per-call message count
        # posted: one set for this call plus one for early arrivals from
        # peers already running the *next* call (each peer can be at most
        # one call ahead).  A smaller pool deadlocks: an early next-call
        # message can consume the token owed to this call's last message,
        # leaving the blocked rank unable to ever receive it.
        yield from port.ensure_receive_buffers(2 * max(schedule.num_recvs, 1))
        for ops in schedule.rounds:
            for op in ops:
                if op.kind == "send":
                    dst = group[op.peer]
                    if op.slot is None:
                        size, payload = 0, {"tag": op.tag}
                    else:
                        size = payload_bytes
                        payload = {"tag": op.tag, "value": buffers[op.slot]}
                    yield from port.send_with_callback(
                        dst_node=dst[0], dst_port=dst[1],
                        size_bytes=size, payload=payload,
                    )
            for op in ops:
                if op.kind == "recv":
                    event = yield from _recv_from(port, group[op.peer], op.tag)
                    if op.slot is not None:
                        buffers[op.slot] = event.payload["value"]
            run_local_ops(ops, buffers)
    if schedule.result_slot is None:
        return None
    return buffers[schedule.result_slot]


def host_barrier(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
):
    """Host-based barrier (host generator): PE (MPICH pattern, Section
    5.1), dissemination, or GB over a ``dimension``-ary tree.

    GB's broadcast sends are issued back-to-back, which lets them
    pipeline through the NIC -- the effect the paper credits for the
    host-based GB's relatively good showing.

    Returns :func:`run_schedule`'s generator itself (a barrier schedule
    has no result slot, so it returns None), so a ``yield from``
    resumes no pass-through frame.
    """
    return run_schedule(
        port, group, compile_barrier(len(group), rank, algorithm, dimension)
    )


def _host_tree(port, group, rank, kind, value, op, dimension, payload_bytes):
    schedule = compile_tree(len(group), rank, dimension, kind=kind, op=op)
    result = yield from run_schedule(
        port, group, schedule, {"acc": value}, payload_bytes
    )
    return result


def host_reduce(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any,
    op: str = "sum",
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """Host-based tree reduction; returns the result at rank 0, else None."""
    result = yield from _host_tree(
        port, group, rank, "reduce", value, op, dimension, payload_bytes
    )
    return result


def host_bcast(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any = None,
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """Host-based tree broadcast; every rank returns the root's value."""
    result = yield from _host_tree(
        port, group, rank, "bcast", value, "sum", dimension, payload_bytes
    )
    return result


def host_allreduce(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any,
    op: str = "sum",
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """Host-based allreduce: tree reduction then tree broadcast."""
    result = yield from _host_tree(
        port, group, rank, "allreduce", value, op, dimension, payload_bytes
    )
    return result
