"""Host processor cost model.

All values in microseconds of host-CPU time.  ``extra_overhead_us`` models
an additional messaging layer (e.g. MPI over GM): the paper predicts from
Equation 3 that "as the host send overhead increases, say from the
addition of another programming layer such as MPI, the factor of
improvement will increase" -- the MPI-overhead sweep bench raises exactly
this knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property


@dataclass(frozen=True)
class HostParams:
    """Per-operation host CPU costs (microseconds)."""

    #: ``gm_send_with_callback``: fill in + queue a send token.  Together
    #: with the NIC's token-detect latency this forms the ``Send`` term.
    send_cost_us: float = 4.75
    #: ``HRecv``: process a received message after the NIC's DMA.
    recv_cost_us: float = 5.75
    #: Average detection latency of the gm_receive polling loop.
    poll_delay_us: float = 1.0
    #: Processing a returned send token (send-completion event).
    sent_event_cost_us: float = 0.6
    #: Posting a receive buffer / barrier buffer to the NIC.
    buffer_post_cost_us: float = 0.4
    #: Host-side barrier setup: computing the PE schedule or GB tree
    #: neighborhood before handing it to the NIC (Section 5.1 keeps this
    #: on the host because it is cheap there).
    barrier_setup_cost_us: float = 1.2
    #: Extra per-message overhead of a higher layer (MPI-style), added to
    #: every send initiation and every received-message processing.
    extra_overhead_us: float = 0.0
    #: Host processors per node (the testbed was dual-CPU).
    num_cpus: int = 2

    def with_(self, **changes) -> "HostParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # Cached per (immutable) instance: read on every send and receive.
    @cached_property
    def effective_send_cost_us(self) -> float:
        """Send-initiation cost including any layered overhead."""
        return self.send_cost_us + self.extra_overhead_us

    @cached_property
    def effective_recv_cost_us(self) -> float:
        """HRecv cost including any layered overhead."""
        return self.recv_cost_us + self.extra_overhead_us
