"""Packet-filter guard constructors (paper sections 2-3, Figure 2).

Guards are the edges of the Plexus protocol graph: predicates evaluated by
the SPIN dispatcher that demultiplex packets to handlers, "limiting
packets whose headers are not matched by the guard's predicate on either
input (to prevent snooping) or output (to prevent spoofing)".

Each constructor returns a closure whose signature matches the event it
will be installed on.  The closures read packet headers through VIEW --
the exact idiom of the paper's Figure 2 (``VIEW(m.m_data, Ethernet.T)``)
-- so no bytes are copied during demultiplexing.

Event argument conventions (shared with ``repro.core.plexus``):

* ``<link>.PacketRecv(nic, m)`` -- ``m`` at the frame start.
* ``IP.PacketRecv(protocol, m, off, src, dst)`` -- ``off`` at the payload.
* ``UDP.PacketRecv(m, off, src_ip, src_port, dst_ip, dst_port)``.
* ``TCP.PacketRecv(m, off, src_ip, dst_ip)``.
"""

from __future__ import annotations

from typing import Callable, Collection, FrozenSet

from ..lang.view import VIEW, raw_storage
from ..net.headers import (
    ETHERNET_HEADER,
    IPPROTO_TCP,
    IPPROTO_UDP,
    TCP_HEADER,
    UDP_HEADER,
)
from ..spin.mbuf import Mbuf

__all__ = [
    "ethertype_guard",
    "ip_protocol_guard",
    "udp_dst_port_guard",
    "tcp_port_guard",
    "transport_redirect_guard",
]


def ethertype_guard(ethertype: int) -> Callable:
    """Match Ethernet frames with the given type field (Figure 2).

    This guard runs on *every* received frame, so instead of building a
    full ``VIEW`` per packet it reads the one field it tests through the
    layout's compiled scalar accessor -- the same decode a
    ``VIEW(m.data, Ethernet.T).type`` performs, without the view object.
    """
    header_size = ETHERNET_HEADER.size
    get_type, type_off = ETHERNET_HEADER.scalar_getter("type")

    def guard(nic, m: Mbuf) -> bool:
        if m.length() < header_size:
            return False
        return get_type(raw_storage(m.data), type_off)[0] == ethertype

    guard.__name__ = "ethertype_0x%04x" % ethertype
    return guard


def ip_protocol_guard(protocol: int) -> Callable:
    """Match IP payloads of one protocol number (UDP/TCP/ICMP demux)."""

    def guard(proto: int, m: Mbuf, off: int, src: int, dst: int) -> bool:
        return proto == protocol

    guard.__name__ = "ipproto_%d" % protocol
    return guard


def udp_dst_port_guard(port: int) -> Callable:
    """Match UDP datagrams destined to one port (endpoint demux).

    This is the anti-snooping edge: the handler behind it can never see a
    datagram for another application's port.
    """

    def guard(m: Mbuf, off: int, src_ip: int, src_port: int,
              dst_ip: int, dst_port: int) -> bool:
        return dst_port == port

    guard.__name__ = "udp_port_%d" % port
    return guard


def tcp_port_guard(ports: Collection[int]) -> Callable:
    """Match TCP segments whose destination port is in ``ports``
    (the paper's TCP-special implementation)."""
    port_set: FrozenSet[int] = frozenset(ports)

    def guard(m: Mbuf, off: int, src_ip: int, dst_ip: int) -> bool:
        if m.length() < off + TCP_HEADER.size:
            return False
        header = VIEW(m.data, TCP_HEADER, offset=off)
        return header.dst_port in port_set

    guard.__name__ = "tcp_ports_%s" % sorted(port_set)
    return guard


def transport_redirect_guard(ip_protocol: int, port: int) -> Callable:
    """IP-level guard matching TCP/UDP packets for one destination port.

    Used by the forwarding protocol of paper section 5.2, which redirects
    "all data and control packets destined for a particular port number":
    it must fire on *every* segment, including SYN/FIN/RST, so it sits at
    the IP level rather than inside TCP.
    """
    if ip_protocol not in (IPPROTO_TCP, IPPROTO_UDP):
        raise ValueError("redirect guard supports TCP or UDP only")
    header_layout = TCP_HEADER if ip_protocol == IPPROTO_TCP else UDP_HEADER

    def guard(proto: int, m: Mbuf, off: int, src: int, dst: int) -> bool:
        if proto != ip_protocol:
            return False
        if m.length() < off + header_layout.size:
            return False
        header = VIEW(m.data, header_layout, offset=off)
        return header.dst_port == port

    guard.__name__ = "redirect_%d_port_%d" % (ip_protocol, port)
    return guard
