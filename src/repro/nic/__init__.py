"""LANai NIC model: hardware resources plus the MCP firmware.

The NIC is where the paper's contribution lives.  The model has three
layers:

* :mod:`repro.nic.lanai` -- per-generation cost tables: each firmware
  operation costs a number of LANai processor cycles, converted to
  microseconds by the card's clock (33 MHz for LANai 4.3, 66 MHz for
  LANai 7.2).  This single lever reproduces the paper's central
  observation that a faster NIC processor raises the NIC-based barrier's
  factor of improvement.
* :mod:`repro.nic.dma` -- the two DMA engines contending for the PCI
  bus.  The SRAM packet-buffer pools are plain
  :class:`~repro.sim.primitives.Resource` s on the :class:`Nic`.
* :mod:`repro.nic.mcp` -- the Myrinet Control Program: the SDMA, SEND,
  RECV and RDMA state machines (Figure 4 of the paper) sharing the NIC
  processor, including the barrier extension hooks of Section 5.2.
"""

from repro.nic.dma import DmaEngine
from repro.nic.lanai import LANAI_4_3, LANAI_7_2, LANAI_9_2, LanaiModel
from repro.nic.nic import Nic, NicParams

__all__ = [
    "DmaEngine",
    "LANAI_4_3",
    "LANAI_7_2",
    "LANAI_9_2",
    "LanaiModel",
    "Nic",
    "NicParams",
]
