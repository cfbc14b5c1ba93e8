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
from repro.sim.primitives import Hold, Resource


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
        self.transfers = 0
        self.bytes_moved = 0
        metrics = sim.metrics
        prefix = name or "dma"
        metrics.observe(f"{prefix}.transfers", lambda: self.transfers)
        metrics.observe(f"{prefix}.bytes", lambda: self.bytes_moved)
        #: Simulated time this engine holds the PCI bus (merged intervals).
        self._busy = metrics.busy_time(f"{prefix}.busy")
        #: Time spent waiting for the bus before each transfer -- the PCI
        #: contention term of the paper's Send/RDMA decomposition.
        self._pci_wait = metrics.histogram(f"{prefix}.pci_wait_us")
        # Sampled telemetry (no-ops when disabled): the monotone byte
        # total becomes a per-interval transfer rate.  Reads the plain
        # attribute, never the metrics instruments above (null objects
        # when the metrics flag is off).
        sim.telemetry.register(
            f"{prefix}.bytes_rate",
            lambda: float(self.bytes_moved),
            kind="counter",
            component=prefix,
            unit="B/us",
        )

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
        """
        if size_bytes < 0:
            raise ValueError("negative DMA size")
        sim = self.sim
        requested_at = sim.now
        busy = self._busy

        def granted() -> None:
            self._pci_wait.observe(sim.now - requested_at)
            busy.begin()

        hold = Hold(self.pci_bus, self.transfer_time(size_bytes), granted)
        try:
            yield hold
        finally:
            if hold.handle is None:  # granted: the busy interval is open
                busy.end()
        self.transfers += 1
        self.bytes_moved += size_bytes
        if ctx is not None and self.tracer is not None:
            # Name "nic3.rdma" -> category "nic3", label "rdma.dma".
            category, _, engine = self.name.rpartition(".")
            self.tracer.record(
                category or "dma", f"{engine or 'dma'}.dma",
                size=size_bytes, wait_us=self.sim.now - requested_at,
                ctx=ctx,
            )
