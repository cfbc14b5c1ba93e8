"""User-facing barrier operations.

``barrier(...)`` is the blocking NIC-based barrier; ``fuzzy_barrier(...)``
returns a handle that separates initiation from completion so the host
can compute while the NIC runs the barrier (the fuzzy barrier of
Gupta '89 that Section 1 highlights: "Because the barrier algorithm is
performed at the NIC, the processor is free to perform computation while
polling for the barrier to complete").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.topology_calc import make_plan
from repro.gm.api import GmPort
from repro.gm.events import BarrierCompletedEvent

Endpoint = Tuple[int, int]


def barrier(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
):
    """Blocking NIC-based barrier (host generator).

    Provides the completion buffer, initiates the barrier on the NIC and
    polls ``gm_receive`` until the GM_BARRIER_COMPLETED_EVENT arrives.
    Returns the completion event.
    """
    plan = make_plan(group, rank, algorithm, dimension)
    yield from port.provide_barrier_buffer()
    token = yield from port.barrier_send_with_callback(plan)
    event = yield from port.receive_where(
        lambda ev: isinstance(ev, BarrierCompletedEvent)
        and ev.barrier_seq == token.barrier_seq
    )
    return event


@dataclass
class BarrierHandle:
    """An initiated-but-not-yet-completed barrier (fuzzy barrier)."""

    port: GmPort
    barrier_seq: int
    completed: bool = False
    completion_event: Optional[BarrierCompletedEvent] = None

    def _matches(self, ev) -> bool:
        return (
            isinstance(ev, BarrierCompletedEvent)
            and ev.barrier_seq == self.barrier_seq
        )

    def test(self):
        """Non-blocking completion poll (host generator -> bool).

        One polling-delay charge per call, exactly the cost structure of
        a host spinning on gm_receive between computation chunks.
        """
        if self.completed:
            return True
        # Check stashed events first (another receive may have buffered it).
        for i, ev in enumerate(self.port._stash):
            if self._matches(ev):
                del self.port._stash[i]
                self.completed = True
                self.completion_event = ev
                return True
        ev = yield from self.port.try_receive()
        if ev is None:
            return False
        if self._matches(ev):
            self.completed = True
            self.completion_event = ev
            return True
        from repro.gm.events import SentEvent

        if not isinstance(ev, SentEvent):
            self.port._stash.append(ev)
        return False

    def wait(self):
        """Block until the barrier completes (host generator)."""
        if self.completed:
            return self.completion_event
        ev = yield from self.port.receive_where(self._matches)
        self.completed = True
        self.completion_event = ev
        return ev


def fuzzy_barrier(
    port: GmPort,
    group: Sequence[Endpoint],
    rank: int,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
):
    """Initiate a NIC-based barrier and return immediately (host generator
    -> :class:`BarrierHandle`).

    The caller may interleave computation with ``handle.test()`` polls and
    finish with ``handle.wait()``.
    """
    plan = make_plan(group, rank, algorithm, dimension)
    yield from port.provide_barrier_buffer()
    token = yield from port.barrier_send_with_callback(plan)
    return BarrierHandle(port=port, barrier_seq=token.barrier_seq)
