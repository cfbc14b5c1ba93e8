"""NIC-resident heartbeat failure detector (fail-stop crashes).

The Myrinet/GM reliability design assumes every peer is alive forever:
a dead node leaves every barrier algorithm hanging until the
retransmission limit finally alarms.  This module gives each NIC the
liveness component that turns hangs into prompt, typed failures:

* **Piggybacked liveness** -- every packet delivered to the NIC
  refreshes the sender's ``last_seen`` stamp (``saw``), and every packet
  the NIC injects refreshes the destination's ``last_sent`` stamp
  (``sent``).  Both are plain attribute writes scheduling no events, so
  a run without an armed detector is bit-identical to a run before the
  detector existed.
* **Explicit HEARTBEAT packets** -- a periodic tick (every
  ``heartbeat_us``) sends a fire-and-forget ``HEARTBEAT`` packet to
  each peer the NIC has been send-idle toward, keeping the all-to-all
  liveness mesh alive through application quiet periods.
* **Suspicion** -- a peer not heard from within ``suspect_after`` is
  declared *suspect*, permanently (fail-stop: once suspect, always
  suspect).  Suspicion fans out through
  :meth:`repro.nic.nic.Nic.on_peer_suspected`, which keeps the one
  suspect record (``Nic.suspected_peers``: peer -> declared-at time):
  reliability streams toward the suspect are abandoned, in-flight
  barriers involving it are aborted, and every open port gets a
  :class:`~repro.gm.events.PeerFailureEvent`.

Only a crash-bearing fault plan builds detectors
(:class:`~repro.faults.inject.FaultController`), and it arms them over
a bounded window: an armed detector keeps the event loop alive (its
ticks and heartbeats are events), so ``arm(active_until)`` stops the
tick from re-arming once the window -- derived from the plan's last
crash time -- has passed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.network.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic


class FailureDetector:
    """Heartbeat-based fail-stop failure detector for one NIC."""

    def __init__(self, nic: "Nic", heartbeat_us: float,
                 suspect_after: float) -> None:
        if heartbeat_us <= 0:
            raise ValueError("heartbeat_us must be positive")
        if suspect_after <= heartbeat_us:
            raise ValueError("suspect_after must exceed heartbeat_us")
        self.nic = nic
        self.sim = nic.sim
        self.heartbeat_us = heartbeat_us
        self.suspect_after = suspect_after
        #: peer node id -> last simulated time any packet from it arrived.
        self.last_seen: Dict[int, float] = {}
        #: peer node id -> last simulated time we injected anything to it.
        self.last_sent: Dict[int, float] = {}
        self.heartbeats_sent = 0
        self.armed = False
        self.active_until: Optional[float] = None
        sim = nic.sim
        if sim.probing:
            fd = f"nic{nic.node_id}.fd"
            sim.probe(f"{fd}.heartbeats", lambda: self.heartbeats_sent,
                      "counter", fd, "beats/us")

    # ------------------------------------------------------------------
    def arm(self, active_until: float) -> None:
        """Start the periodic tick (once, before any crash fires); it
        stops re-arming at ``active_until``."""
        self.active_until = active_until
        self.armed = True
        self.sim.schedule(self.heartbeat_us, self._tick)

    def stop(self) -> None:
        """Silence the detector for good (its own NIC crashed)."""
        self.armed = False

    # -- piggyback hooks (plain writes; called per packet when armed) ----
    def saw(self, src_node: int) -> None:
        """A packet from ``src_node`` arrived: it was alive when sent."""
        self.last_seen[src_node] = self.sim.now

    def sent(self, dst_node: int) -> None:
        """We injected a packet toward ``dst_node`` (heartbeat suppressor)."""
        self.last_sent[dst_node] = self.sim.now

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.armed:
            return
        nic = self.nic
        suspected = nic.suspected_peers
        now = self.sim.now
        for peer in nic.network.nic_ids():
            if peer == nic.node_id or peer in suspected:
                continue
            # Grace for peers first observed now: the suspicion window
            # starts at discovery, not at simulated time zero.
            seen = self.last_seen.setdefault(peer, now)
            if now - seen > self.suspect_after:
                self._suspect(peer)
                continue
            if now - self.last_sent.get(peer, -self.heartbeat_us) \
                    >= self.heartbeat_us:
                self._send_heartbeat(peer)
        if now >= self.active_until:
            self.armed = False
            return
        self.sim.schedule(self.heartbeat_us, self._tick)

    def _send_heartbeat(self, peer: int) -> None:
        nic = self.nic
        packet = nic.make_packet(
            PacketType.HEARTBEAT,
            dst_node=peer,
            dst_port=0,
            src_port=0,
        )
        self.last_sent[peer] = self.sim.now
        self.heartbeats_sent += 1
        nic.send_queue.put((packet, False))

    def _suspect(self, peer: int) -> None:
        nic = self.nic
        if nic.tracer is not None:
            nic.tracer.record(
                nic.trace_category, "fd.suspect", peer=peer,
                last_seen=self.last_seen.get(peer),
                suspect_after=self.suspect_after,
            )
        nic.on_peer_suspected(peer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self.armed else "idle"
        return (
            f"<FailureDetector nic{self.nic.node_id} {state} "
            f"heartbeats={self.heartbeats_sent}>"
        )
