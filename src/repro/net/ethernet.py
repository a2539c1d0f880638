"""Ethernet layer: framing, demultiplexing entry point.

``EthernetProto`` is the bottom node of the protocol graph for Ethernet
worlds (paper Figure 1).  Its ``input`` runs at interrupt level and hands
the *full frame* (header included) upward through the ``upcall`` hook --
under Plexus that hook raises the ``Ethernet.PacketRecv`` event whose
guards VIEW the header exactly as Figure 2 shows; under the UNIX model it
is a direct call into the demux switch.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..hw.nic import NIC
from ..spin.mbuf import Mbuf
from .headers import ETHERNET_HEADER, ETHER_BROADCAST

__all__ = ["EthernetProto"]


class EthernetProto:
    """Ethernet framing bound to one NIC."""

    HEADER_LEN = ETHERNET_HEADER.size  # 14

    def __init__(self, host, nic: NIC):
        self.host = host
        self.nic = nic
        #: set by the OS glue: fn(nic, mbuf) with the mbuf at the frame start
        self.upcall: Optional[Callable] = None
        self.mtu = nic.mtu
        #: the source address every frame carries: fixed with the NIC
        self._src_mac = bytes(nic.address)
        #: frames shorter than a header, dropped on input
        self.runts = 0

    # -- send path ------------------------------------------------------

    def output(self, m: Mbuf, dst_mac: bytes, ethertype: int) -> bool:
        """Frame ``m`` and hand it to the device (plain code).

        ``dst_mac`` is 6 ``bytes``: ARP's cache and the broadcast address
        are, and an extension's MAC is checked and converted by
        ``EthernetManager.send_capability`` before it gets here."""
        # cpu.charge inlined (exact body, exact order): hot send path.
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = self.host.costs.ethernet_output
        stack[-1] += amount
        cpu.category_times["protocol"] += amount
        m = m.push(self.HEADER_LEN)
        ETHERNET_HEADER.pack_into(m._storage, m.off, dst_mac, self._src_mac,
                                  ethertype)
        return self.nic.stage_tx(memoryview(m._storage)[m.off:m.off + m.len], dst_mac)

    def broadcast(self, m: Mbuf, ethertype: int) -> bool:
        return self.output(m, ETHER_BROADCAST, ethertype)

    # -- receive path ---------------------------------------------------------

    def input(self, nic: NIC, frame_data: bytes) -> None:
        """Device receive entry (plain code, interrupt context)."""
        if len(frame_data) < self.HEADER_LEN:
            self.runts += 1
            return
        # cpu.charge inlined (exact body, exact order): interrupt path.
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = self.host.costs.ethernet_input
        stack[-1] += amount
        cpu.category_times["protocol"] += amount
        m = self.host.mbufs.from_bytes(frame_data, leading_space=0)
        if self.upcall is not None:
            self.upcall(nic, m)
