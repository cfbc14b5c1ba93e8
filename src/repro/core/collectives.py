"""User-facing NIC-based data collectives (the Section 8 extension).

``reduce``, ``allreduce`` and ``bcast`` run on the NIC over the same
d-ary trees as the GB barrier; completion arrives as a
:class:`~repro.gm.events.CollectiveCompletedEvent` carrying the result.
All are host generators, like :func:`repro.core.barrier.barrier`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.core.topology_calc import gb_plan
from repro.gm.api import GmPort
from repro.gm.events import CollectiveCompletedEvent

Endpoint = Tuple[int, int]


def _run_collective(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    kind: str,
    value: Any,
    op: str,
    dimension: Optional[int],
    payload_bytes: int,
):
    """Shared driver: plan, initiate, await the completion event."""
    if len(group) == 1:
        # Degenerate group: the result is the local value.
        return value
    plan = gb_plan(group, rank, dimension)
    yield from port.provide_barrier_buffer()
    token = yield from port.collective_send_with_callback(
        kind, plan, value=value, op=op, payload_bytes=payload_bytes
    )
    event = yield from port.receive_where(
        lambda ev: isinstance(ev, CollectiveCompletedEvent)
        and ev.coll_seq == token.coll_seq
    )
    return event.result


def reduce(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any,
    op: str = "sum",
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """NIC-based reduction to the root (rank 0 of ``group``).

    Host generator; returns the combined value at the root and ``None``
    at every other rank.
    """
    result = yield from _run_collective(
        port, group, rank, "reduce", value, op, dimension, payload_bytes
    )
    return result


def allreduce(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any,
    op: str = "sum",
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """NIC-based allreduce: every rank returns the combined value.

    Structurally identical to the GB barrier -- a barrier *is* an
    allreduce without data -- so its latency profile matches NIC-GB plus
    the per-hop value-combining cost.
    """
    result = yield from _run_collective(
        port, group, rank, "allreduce", value, op, dimension, payload_bytes
    )
    return result


def bcast(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    value: Any = None,
    dimension: Optional[int] = None,
    payload_bytes: int = 8,
):
    """NIC-based broadcast of the root's ``value`` down the tree.

    Host generator; every rank (including the root) returns the root's
    value.  Non-root ranks' ``value`` argument is ignored.
    """
    result = yield from _run_collective(
        port, group, rank, "bcast", value, "sum", dimension, payload_bytes
    )
    return result
