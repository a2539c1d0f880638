"""ARP: IPv4-to-link-address resolution over Ethernet.

A real request/reply implementation with a cache and a pending-packet
queue: packets sent to an unresolved address are held and transmitted when
the reply arrives (one queued packet per destination, as classic BSD does).
:class:`ArpProto` is also the link adapter IP sends through over Ethernet
(``mtu``, ``send``): it resolves the next hop and frames with Ethernet.
"""

from __future__ import annotations

from typing import Dict, List

from ..lang.view import VIEW
from ..spin.mbuf import Mbuf
from .ethernet import EthernetProto
from .headers import (
    ARP_HEADER,
    ARP_REPLY,
    ARP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ip_ntoa,
)

__all__ = ["ArpProto"]


class ArpProto:
    """ARP bound to one Ethernet, and IP's adapter onto it.

    Cache entries age out after :attr:`entry_lifetime_us` (20 minutes,
    the classic BSD default): an entry older than that triggers a fresh
    request/reply exchange on next use.
    """

    DEFAULT_LIFETIME_US = 20 * 60 * 1e6

    def __init__(self, host, ethernet: EthernetProto, my_ip: int,
                 entry_lifetime_us: float = DEFAULT_LIFETIME_US):
        self.host = host
        self.ethernet = ethernet
        self.mtu = ethernet.mtu
        self.my_ip = my_ip
        self.entry_lifetime_us = entry_lifetime_us
        self.cache: Dict[int, bytes] = {}
        self._entry_born: Dict[int, float] = {}
        self._pending: Dict[int, List[Mbuf]] = {}
        self.requests_sent = 0
        self.replies_sent = 0
        self.expirations = 0

    # -- resolution --------------------------------------------------------

    def send(self, m: Mbuf, next_hop: int) -> None:
        """IP hand-off (plain code): send ``m`` to ``next_hop``, resolving
        its link address first.  If the cache misses (or its entry has
        expired), the packet is queued and an ARP request goes out
        instead."""
        mac = self.cache.get(next_hop)
        if mac is not None:
            if (self.host.engine.now - self._entry_born.get(next_hop, 0.0)
                    > self.entry_lifetime_us):
                del self.cache[next_hop]
                self._entry_born.pop(next_hop, None)
                self.expirations += 1
            else:
                self.ethernet.output(m, mac, ETHERTYPE_IP)
                return
        queue = self._pending.setdefault(next_hop, [])
        queue.append(m)
        del queue[:-4]  # hold at most the 4 most recent packets
        self._send_request(next_hop)

    def add_entry(self, ip: int, mac: bytes) -> None:
        """Insert a static/learned mapping and flush queued packets."""
        mac = self.cache[ip] = bytes(mac)
        self._entry_born[ip] = self.host.engine.now
        for m in self._pending.pop(ip, []):
            self.ethernet.output(m, mac, ETHERTYPE_IP)

    # -- the wire protocol ----------------------------------------------------

    def _build(self, op: int, tha: bytes, tpa: int) -> Mbuf:
        buf = bytearray(ARP_HEADER.size)
        view = VIEW(buf, ARP_HEADER)
        view.htype = 1          # Ethernet
        view.ptype = ETHERTYPE_IP
        view.hlen = 6
        view.plen = 4
        view.op = op
        view.sha = self.ethernet.nic.address
        view.spa = self.my_ip
        view.tha = tha
        view.tpa = tpa
        return self.host.mbufs.from_bytes(buf, leading_space=EthernetProto.HEADER_LEN)

    def _send_request(self, dst_ip: int) -> None:
        self.host.cpu.charge(self.host.costs.arp_process, "protocol")
        self.requests_sent += 1
        m = self._build(ARP_REQUEST, b"\x00" * 6, dst_ip)
        self.ethernet.broadcast(m, ETHERTYPE_ARP)

    def input(self, m: Mbuf, off: int) -> None:
        """Process a received ARP packet at offset ``off`` (plain code)."""
        data = m.data
        if len(data) < off + ARP_HEADER.size:
            return
        self.host.cpu.charge(self.host.costs.arp_process, "protocol")
        view = VIEW(data, ARP_HEADER, offset=off)
        if view.htype != 1 or view.ptype != ETHERTYPE_IP:
            return
        sender_mac = view.sha.tobytes()
        sender_ip = view.spa
        # Learn the sender either way (standard ARP behaviour).
        if sender_ip != 0:
            self.add_entry(sender_ip, sender_mac)
        if view.op == ARP_REQUEST and view.tpa == self.my_ip:
            self.replies_sent += 1
            reply = self._build(ARP_REPLY, sender_mac, sender_ip)
            self.ethernet.output(reply, sender_mac, ETHERTYPE_ARP)

    def __repr__(self) -> str:
        return "<ArpProto %s cache=%s>" % (
            ip_ntoa(self.my_ip), {ip_ntoa(k): v.hex() for k, v in self.cache.items()})
