"""LANai processor cost model.

Every MCP firmware action is assigned a cycle count; wall time is
``cycles / clock_mhz`` microseconds.  The cycle counts are calibrated (see
:mod:`repro.analysis.calibration`) so that the end-to-end host-based and
NIC-based barrier latencies land on the paper's measured anchors for the
LANai 4.3 and 7.2 cards; the *same* cycle table with a different clock
reproduces both generations, which is exactly the paper's claim that the
improvement scales with NIC processor speed.

Why GB operations cost more cycles than PE operations: the paper observes
(Section 6) that the NIC-based GB barrier loses to the *host*-based GB
barrier at two nodes "because of the overhead of processing the barrier
algorithm at the NIC".  The GB firmware path walks child lists, maintains
the gather-pending set and serially re-queues the send token once per
child in the broadcast phase, all in firmware on a 33 MHz processor,
whereas the PE path is a single index increment.  The calibrated tables
encode that asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict

#: Canonical operation names charged against the NIC processor.
OPERATIONS = (
    # SDMA state machine
    "poll_detect",          # notice a freshly queued host send token
    "token_process",        # dequeue + validate a send token, pick connection
    "dma_setup",            # program one DMA transfer
    "packet_prep",          # build a data packet header in SRAM
    "send_queue_manage",    # sent-list / connection-queue bookkeeping
    # SEND state machine
    "send_dispatch",        # hand a prepared packet to the wire interface
    # RECV state machine
    "recv_packet",          # receive + validate + CRC-check a data packet
    "recv_barrier",         # receive a barrier packet (no token matching)
    "recv_control",         # process an ACK/NACK/BARRIER_ACK/REJECT
    # RDMA state machine
    "rdma_process",         # match receive token, program host-bound DMA
    "post_event",           # build + DMA a receive-queue event to the host
    "ack_gen",              # prepare an ACK/NACK packet
    # Barrier extension, PE path (Section 5.2)
    "barrier_initiate",     # process a barrier send token from the host
    "barrier_packet_prep",  # update token, write next dest, build packet
    "barrier_check",        # test one unexpected-record bit
    "barrier_record",       # set one unexpected-record bit
    "barrier_advance",      # clear bit, bump node_index, re-queue token
    "barrier_complete",     # finish: clear port pointer, prep notification
    # Barrier extension, GB-specific costs
    "gb_initiate",          # process a GB barrier send token (tree setup)
    "coll_combine",         # apply the reduction operator to one value
    "gb_gather_check",      # scan children bits / gather-pending handling
    "gb_token_requeue",     # update + re-queue the token for the next child
)


@dataclass(frozen=True)
class LanaiModel:
    """A LANai generation: clock speed + cycle cost table."""

    name: str
    clock_mhz: float
    cycles: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [op for op in OPERATIONS if op not in self.cycles]
        if missing:
            raise ValueError(f"{self.name}: missing cycle costs for {missing}")
        unknown = [op for op in self.cycles if op not in OPERATIONS]
        if unknown:
            raise ValueError(f"{self.name}: unknown operations {unknown}")
        if self.clock_mhz <= 0:
            raise ValueError("clock must be positive")

    @cached_property
    def costs(self) -> Dict[str, float]:
        """Operation -> its cost in microseconds on this card, computed
        once per model (every NIC charge looks one up)."""
        return {op: cycles / self.clock_mhz for op, cycles in self.cycles.items()}

    def time(self, operation: str) -> float:
        """Cost of ``operation`` in microseconds on this card."""
        try:
            return self.costs[operation]
        except KeyError:
            raise KeyError(f"unknown NIC operation {operation!r}") from None

    def with_clock(self, clock_mhz: float, name: str | None = None) -> "LanaiModel":
        """Same firmware on a faster/slower processor."""
        return replace(
            self, clock_mhz=clock_mhz, name=name or f"{self.name}@{clock_mhz}MHz"
        )


#: Shared firmware cycle table (the firmware is the same across cards; the
#: clock is what differs).  Values calibrated against the paper's Figure 5
#: anchors -- see analysis/calibration.py and EXPERIMENTS.md.
_GM_FIRMWARE_CYCLES: Dict[str, int] = {
    "poll_detect": 100,
    "token_process": 120,
    "dma_setup": 90,
    "packet_prep": 95,
    "send_queue_manage": 60,
    "send_dispatch": 85,
    "recv_packet": 180,
    "recv_barrier": 100,
    "recv_control": 110,
    "rdma_process": 100,
    "post_event": 55,
    "ack_gen": 100,
    "barrier_initiate": 70,
    "barrier_packet_prep": 130,
    "barrier_check": 55,
    "barrier_record": 55,
    "barrier_advance": 190,
    "barrier_complete": 80,
    "gb_initiate": 1075,
    "coll_combine": 140,
    "gb_gather_check": 50,
    "gb_token_requeue": 60,
}


#: LANai 4.3: 33 MHz processor (the paper's 16-node system).
LANAI_4_3 = LanaiModel(name="LANai 4.3", clock_mhz=33.0, cycles=dict(_GM_FIRMWARE_CYCLES))

#: LANai 7.2: 66 MHz processor (the paper's 8-node system).
LANAI_7_2 = LanaiModel(name="LANai 7.2", clock_mhz=66.0, cycles=dict(_GM_FIRMWARE_CYCLES))

#: LANai 9.x: 132 MHz, the top of the range the paper quotes ("Myrinet NIC
#: processor speeds range from 33MHz to 132MHz"); used by the scaling
#: extrapolation bench.
LANAI_9_2 = LanaiModel(name="LANai 9.2", clock_mhz=132.0, cycles=dict(_GM_FIRMWARE_CYCLES))
