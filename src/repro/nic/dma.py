"""DMA engines and the shared PCI bus.

The LANai has two DMA engines -- host-to-SRAM (used by the SDMA state
machine) and SRAM-to-host (used by RDMA) -- but they share one PCI bus, so
concurrent transfers serialize.  A transfer costs:

* ``dma_setup`` NIC-processor cycles to program the engine (charged by the
  calling state machine against the NIC CPU, not here);
* bus acquisition (FIFO under contention);
* ``pci_setup_us`` of bus-transaction overhead plus ``bytes /
  pci_bandwidth_mbps`` of data movement.

Zero-byte transfers (barrier initiation tokens, completion notifications)
still pay the bus-transaction overhead, which is why the paper's ``Send``
and ``RDMA`` terms are nonzero even for empty messages.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.primitives import Hold, HoldTable, Resource


class DmaEngine:
    """One directional DMA engine attached to a shared PCI bus."""

    def __init__(
        self,
        sim: Simulator,
        pci_bus: Resource,
        pci_bandwidth_mbps: float,
        pci_setup_us: float,
        name: str = "",
    ) -> None:
        if pci_bandwidth_mbps <= 0:
            raise ValueError("PCI bandwidth must be positive")
        if pci_setup_us < 0:
            raise ValueError("PCI setup time must be >= 0")
        self.sim = sim
        self.pci_bus = pci_bus
        self.pci_bandwidth_mbps = pci_bandwidth_mbps
        self.pci_setup_us = pci_setup_us
        self.name = name
        #: Optional tracer (set by the owning NIC); transfers carrying a
        #: trace context leave a ``{sdma,rdma}.dma`` record on completion.
        self.tracer = None
        # Name "nic3.rdma" -> trace category "nic3", label "rdma.dma".
        category, _, engine = name.rpartition(".")
        self._trace_category = category or "dma"
        self._trace_label = f"{engine or 'dma'}.dma"
        self.transfers = 0
        self.bytes_moved = 0
        #: ``size_bytes -> Hold`` of the bus for an untimed transfer of
        #: that size, built on first use: DMA sizes take few values.
        #: (Its duration is ``transfer_time``, bound to no method: the
        #: engine must not be part of a reference cycle.)
        self._holds = HoldTable(
            pci_bus, lambda size: pci_setup_us + size / pci_bandwidth_mbps
        )
        metrics = sim.metrics
        prefix = name or "dma"
        if sim.probing:
            sim.probe(f"{prefix}.transfers", lambda: self.transfers,
                      "counter", prefix, "xfers/us")
            # Sampled, the monotone byte total is a transfer rate.
            sim.probe(f"{prefix}.bytes", lambda: self.bytes_moved,
                      "counter", prefix, "B/us")
        #: Whether the two instruments below record (else they are no-ops).
        self._timed = metrics.enabled
        #: Simulated time this engine holds the PCI bus (merged intervals).
        self._busy = metrics.busy_time(f"{prefix}.busy")
        #: Time spent waiting for the bus before each transfer -- the PCI
        #: contention term of the paper's Send/RDMA decomposition.
        self._pci_wait = metrics.histogram(f"{prefix}.pci_wait_us")

    def transfer_time(self, size_bytes: int) -> float:
        """Bus-occupancy time for a transfer of ``size_bytes``."""
        return self.pci_setup_us + size_bytes / self.pci_bandwidth_mbps

    def transfer(self, size_bytes: int, ctx=None):
        """Generator: perform one DMA, holding the PCI bus for its duration.

        Usage from a state machine: ``yield from engine.transfer(n)``.
        ``ctx`` is an optional :class:`~repro.sim.tracing.TraceContext`
        attributing the transfer to a traced message; it changes nothing
        about the transfer itself.

        The bus is one :class:`~repro.sim.primitives.Hold`: its grant
        hook observes ``pci_wait_us`` and opens the busy interval at the
        grant instant, and its end event releases the bus before this
        generator resumes.  A transfer interrupted or killed while
        holding the bus closes the busy interval and counts nothing.
        With metrics disabled both instruments are no-ops, so the hold
        carries no hook at all, and one shared hold per size serves
        every transfer of that size.
        """
        if size_bytes < 0:
            raise ValueError("negative DMA size")
        sim = self.sim
        requested_at = sim.now
        if not self._timed:
            yield self._holds[size_bytes]
        else:
            duration = self.transfer_time(size_bytes)
            busy = self._busy
            granted = False

            def on_grant() -> None:
                nonlocal granted
                granted = True
                self._pci_wait.observe(sim.now - requested_at)
                busy.begin()

            try:
                yield Hold(self.pci_bus, duration, on_grant)
            finally:
                if granted:  # the interval is open
                    busy.end()
        self.transfers += 1
        self.bytes_moved += size_bytes
        if ctx is not None and self.tracer is not None:
            self.tracer.emit((sim.now, self._trace_category, self._trace_label, {
                "size": size_bytes, "wait_us": sim.now - requested_at,
                "ctx": ctx,
            }))
