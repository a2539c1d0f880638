"""Link adapters: the interface IP uses to reach a medium.

IP sees one narrow "lower layer" surface -- an ``mtu`` attribute plus
``send(mbuf, next_hop_ip)`` -- with two implementations:

* :class:`~repro.net.arp.ArpProto` -- resolves the next hop with ARP and
  frames with Ethernet headers (the paper's Ethernet world),
* :class:`RawLinkProto` -- for the ATM and T3 devices, where there is no
  broadcast medium: a static neighbor table maps IP addresses to link
  addresses and frames carry the IP packet directly (the Fore interface's
  AAL5 encapsulation cost is modeled in the NIC's ``wire_bytes``).

``RawLinkProto`` doubles as the bottom protocol-graph node for those
devices, with the same ``upcall`` hook shape as ``EthernetProto``.

:func:`link_to_ip` assembles either flavour under one IP layer -- the one
place a ``link`` name is read -- and :func:`direct_upcall` is the
monolithic wiring above it (the SPIN stack raises events instead).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..hw.nic import NIC
from ..spin.mbuf import Mbuf
from .arp import ArpProto
from .ethernet import EthernetProto
from .headers import ETHERNET_HEADER, ETHERTYPE_ARP, ETHERTYPE_IP, ip_ntoa

__all__ = ["RawLinkProto", "link_to_ip", "direct_upcall"]

_ETHERTYPE_OF, _ETHERTYPE_OFF = ETHERNET_HEADER.scalar_getter("type")


class RawLinkProto:
    """Direct IP-over-link for point-to-point / switched media (ATM, T3)."""

    def __init__(self, host, nic: NIC, neighbors: Optional[Dict[int, object]] = None):
        self.host = host
        self.nic = nic
        self.neighbors: Dict[int, object] = dict(neighbors or {})
        #: set by the OS glue: fn(nic, mbuf) with the mbuf at the IP header
        self.upcall: Optional[Callable] = None
        self.mtu = nic.mtu

    def send(self, m: Mbuf, next_hop: int) -> None:
        """IP hand-off (plain code)."""
        link_addr = self.neighbors.get(next_hop)
        if link_addr is None:
            raise KeyError(
                "no neighbor entry for %s on %s" % (ip_ntoa(next_hop), self.nic.name))
        host = self.host
        # cpu.charge inlined (exact body, exact order): per-packet path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = host.costs.ethernet_output
        stack[-1] += amount
        cpu.category_times["protocol"] += amount
        self.nic.stage_tx(memoryview(m._storage)[m.off:m.off + m.len], link_addr)

    def input(self, nic: NIC, frame_data: bytes) -> None:
        """Device receive entry (plain code, interrupt context)."""
        host = self.host
        # cpu.charge inlined (exact body, exact order): per-frame path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = host.costs.ethernet_input
        stack[-1] += amount
        cpu.category_times["protocol"] += amount
        m = host.mbufs.from_bytes(frame_data, leading_space=0)
        if self.upcall is not None:
            self.upcall(nic, m)


def link_to_ip(host, nic: NIC, my_ip: int, link: str,
               neighbors: Optional[Dict[int, object]] = None) -> Tuple:
    """Everything between ``nic`` and an IP layer on ``host``.

    Returns ``(bottom, adapter, arp, header_len)``: the protocol whose
    ``input`` is the device input and whose ``upcall`` the OS glue sets,
    the adapter IP sends through, the resolver, and the link header
    length IP skips.  For ``link="ethernet"`` the bottom is an
    :class:`EthernetProto` and its :class:`ArpProto` is both adapter and
    resolver; for ``link="raw"`` one :class:`RawLinkProto` over
    ``neighbors`` is bottom and adapter, and there is no ARP.
    """
    if link == "ethernet":
        ethernet = EthernetProto(host, nic)
        arp = ArpProto(host, ethernet, my_ip)
        return ethernet, arp, arp, EthernetProto.HEADER_LEN
    if link == "raw":
        rawlink = RawLinkProto(host, nic, neighbors)
        return rawlink, rawlink, None, 0
    raise ValueError("link must be 'ethernet' or 'raw'")


def direct_upcall(ip, arp: Optional[ArpProto], header_len: int) -> Callable:
    """The ``bottom.upcall`` of a kernel wired with direct calls.

    Over Ethernet the frame type picks IP or ARP (read where it lies, as
    ``filters.ethertype_guard`` reads it: no view object per frame); a raw
    link (``arp`` is None) carries nothing but IP.
    """
    if arp is None:
        def raw_demux(nic, m):
            ip.input(m, header_len)
        return raw_demux

    def ether_demux(nic, m):
        ethertype = _ETHERTYPE_OF(m._storage, m.off + _ETHERTYPE_OFF)[0]
        if ethertype == ETHERTYPE_IP:
            ip.input(m, header_len)
        elif ethertype == ETHERTYPE_ARP:
            arp.input(m, header_len)
    return ether_demux
