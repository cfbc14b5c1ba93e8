"""One-sided Get/Put over GM (the other Section 8 layer).

"We intend to study the effects of our NIC-based barrier operation on
higher communication layers, such as MPI or Get/Put" -- this module is a
small Get/Put layer in the style of GM's directed sends:

* a process **exposes** a pinned region (:class:`ExposedRegion`) whose id
  peers can target;
* :meth:`OneSidedPort.put` writes data directly into a remote region --
  the receiving NIC validates bounds and DMAs into host memory without
  consuming a receive token or waking the remote host (optionally posting
  a notification event);
* :meth:`OneSidedPort.get` asks the remote NIC to *read* the region and
  reply -- an RDMA read executed entirely in firmware, the strongest
  demonstration of the programmable-NIC theme: the remote host never
  runs.

Both ride the regular reliable connection stream (sequence numbers,
ACKs, go-back-N), so loss recovery comes for free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.gm.events import GmEvent
from repro.gm.tokens import SendToken
from repro.network.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.gm.api import GmPort

_region_ids = itertools.count(1)


@dataclass
class ExposedRegion:
    """A pinned host-memory region visible to remote NICs.

    ``data`` maps offset -> value; the host owns the memory and may read
    it directly (it *is* host memory), remote NICs write it via PUT and
    read it via GET.
    """

    node_id: int
    port_id: int
    size_bytes: int
    region_id: int = field(default_factory=lambda: next(_region_ids))
    data: Dict[int, Any] = field(default_factory=dict)

    @property
    def handle(self) -> Tuple[int, int, int]:
        """What a peer needs to target this region:
        (node_id, port_id, region_id)."""
        return (self.node_id, self.port_id, self.region_id)

    def check_bounds(self, offset: int, size_bytes: int) -> None:
        """Validate an access window against the region size."""
        if offset < 0 or size_bytes < 0 or offset + size_bytes > self.size_bytes:
            raise ValueError(
                f"one-sided access [{offset}, {offset + size_bytes}) out of "
                f"bounds for region {self.region_id} ({self.size_bytes} B)"
            )


@dataclass
class PutNotifyEvent(GmEvent):
    """Posted to the *target* host when a PUT with notify=True lands."""

    src_node: int = 0
    src_port: int = 0
    region_id: int = 0
    offset: int = 0
    size_bytes: int = 0


@dataclass
class GetCompletedEvent(GmEvent):
    """Posted to the *requesting* host when a GET reply arrives."""

    get_id: int = 0
    value: Any = None
    size_bytes: int = 0


class OneSidedPort:
    """Get/Put operations bound to an open GM port."""

    def __init__(self, gm_port: "GmPort") -> None:
        self.gm_port = gm_port
        self._next_get_id = 1

    # ------------------------------------------------------------------
    def expose_region(self, size_bytes: int) -> ExposedRegion:
        """Pin + register a region for remote access (host-synchronous)."""
        if size_bytes <= 0:
            raise ValueError("region must have positive size")
        port = self.gm_port.port
        if not port.is_open:
            raise port.closed_error()
        self.gm_port.node.memory.pin(size_bytes)
        region = ExposedRegion(
            node_id=self.gm_port.node.node_id,
            port_id=self.gm_port.port_id,
            size_bytes=size_bytes,
        )
        port.exposed_regions[region.region_id] = region
        return region

    def unexpose_region(self, region: ExposedRegion) -> None:
        """Withdraw a region from remote access."""
        self.gm_port.port.exposed_regions.pop(region.region_id, None)

    # ------------------------------------------------------------------
    def put(
        self,
        handle: Tuple[int, int, int],
        offset: int,
        value: Any,
        size_bytes: int,
        notify: bool = False,
    ):
        """Write ``value`` into the remote region (host generator).

        Completes locally when the NIC returns the send token (reliable
        delivery); the remote host is not involved unless ``notify``.
        """
        dst_node, dst_port, region_id = handle
        gm = self.gm_port
        if not gm.port.is_open:
            raise gm.port.closed_error()
        yield from gm.node.cpu_charges[gm.node.params.effective_send_cost_us]
        gm.port.take_send_token()
        token = SendToken(
            src_port=gm.port_id,
            dst_node=dst_node,
            dst_port=dst_port,
            size_bytes=size_bytes,
            payload={
                "region_id": region_id,
                "offset": offset,
                "value": value,
                "notify": notify,
            },
            wire_type=PacketType.PUT,
        )
        gm.nic.post_token(gm.port_id, token)
        return token

    def get(
        self,
        handle: Tuple[int, int, int],
        offset: int,
        size_bytes: int,
    ):
        """Request a read of the remote region (host generator).

        Returns the ``get_id``; the data arrives as a
        :class:`GetCompletedEvent`.  Use :meth:`get_blocking` to wait
        inline.
        """
        dst_node, dst_port, region_id = handle
        gm = self.gm_port
        if not gm.port.is_open:
            raise gm.port.closed_error()
        yield from gm.node.cpu_charges[gm.node.params.effective_send_cost_us]
        gm.port.take_send_token()
        get_id = self._next_get_id
        self._next_get_id += 1
        token = SendToken(
            src_port=gm.port_id,
            dst_node=dst_node,
            dst_port=dst_port,
            size_bytes=0,  # the request itself is tiny
            payload={
                "region_id": region_id,
                "offset": offset,
                "size": size_bytes,
                "get_id": get_id,
                "reply_port": gm.port_id,
            },
            wire_type=PacketType.GET_REQ,
        )
        gm.nic.post_token(gm.port_id, token)
        return get_id

    def get_blocking(self, handle, offset: int, size_bytes: int):
        """get + wait for the reply (host generator); returns the value."""
        get_id = yield from self.get(handle, offset, size_bytes)
        event = yield from self.gm_port.receive_where(
            lambda ev: isinstance(ev, GetCompletedEvent)
            and ev.get_id == get_id
        )
        return event.value
