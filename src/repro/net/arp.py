"""ARP: IPv4-to-link-address resolution over Ethernet.

A real request/reply implementation with a cache and a pending-packet
queue: packets sent to an unresolved address are held and transmitted when
the reply arrives (one queued packet per destination, as classic BSD does).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    """ARP bound to one Ethernet.

    Cache entries age out after :attr:`entry_lifetime_us` (20 minutes,
    the classic BSD default); an expired destination triggers a fresh
    request/reply exchange on next use.
    """

    DEFAULT_LIFETIME_US = 20 * 60 * 1e6

    def __init__(self, host, ethernet: EthernetProto, my_ip: int,
                 entry_lifetime_us: float = DEFAULT_LIFETIME_US):
        self.host = host
        self.ethernet = ethernet
        self.my_ip = my_ip
        self.entry_lifetime_us = entry_lifetime_us
        self.cache: Dict[int, bytes] = {}
        self._entry_born: Dict[int, float] = {}
        self._pending: Dict[int, List[Tuple[Mbuf, int]]] = {}
        self.requests_sent = 0
        self.replies_sent = 0
        self.expirations = 0

    # -- resolution --------------------------------------------------------

    def resolve_and_send(self, m: Mbuf, dst_ip: int, ethertype: int = ETHERTYPE_IP) -> None:
        """Send ``m`` to ``dst_ip``, resolving the link address first.

        Plain code: if the cache misses, the packet is queued and an ARP
        request goes out instead.
        """
        mac = self._lookup(dst_ip)
        if mac is not None:
            self.ethernet.output(m, mac, ethertype)
            return
        queue = self._pending.setdefault(dst_ip, [])
        queue.append((m, ethertype))
        del queue[:-4]  # hold at most the 4 most recent packets
        self._send_request(dst_ip)

    def _lookup(self, ip: int):
        """Cache lookup with expiry."""
        mac = self.cache.get(ip)
        if mac is None:
            return None
        born = self._entry_born.get(ip, 0.0)
        if self.host.engine.now - born > self.entry_lifetime_us:
            del self.cache[ip]
            self._entry_born.pop(ip, None)
            self.expirations += 1
            return None
        return mac

    def add_entry(self, ip: int, mac: bytes) -> None:
        """Insert a static/learned mapping and flush queued packets."""
        self.cache[ip] = bytes(mac)
        self._entry_born[ip] = self.host.engine.now
        for m, ethertype in self._pending.pop(ip, []):
            self.ethernet.output(m, mac, ethertype)

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
