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

Guards as data: every guard built here also carries what it tests, and
``repro.spin.codegen`` inlines that into an event's generated scan.
``guard.tests`` is a tuple of ``(source, op, operand)``, all of which
must hold: ``source`` is an argument index or ``(m_arg, off_arg, byte)``,
the big-endian 16-bit field ``byte`` bytes past argument ``off_arg``
(``None``: the frame start) in mbuf argument ``m_arg``, one field per
guard; ``op`` is ``==``, ``in`` or ``not in``; ``operand`` is a constant,
a frozenset or a live set.  ``guard.need`` is the header bytes the field
read requires.  The closure is the reference semantics: the same tests
in the same order, answering ``False`` for a packet under ``need``.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Collection, FrozenSet

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
    "tcp_standard_guard",
    "transport_redirect_guard",
]

_TCP_DST_PORT = TCP_HEADER.scalar_getter("dst_port")[1]


def _data(guard: Callable, name: str, tests, need: int = 0) -> Callable:
    guard.__name__ = name
    guard.tests = tests
    guard.need = need
    return guard


def ethertype_guard(ethertype: int) -> Callable:
    """Match Ethernet frames with the given type field (Figure 2).

    The closure reads the one field through the layout's scalar
    accessor: the decode ``VIEW(m.data, Ethernet.T).type`` performs.
    """
    header_size = ETHERNET_HEADER.size
    get_type, type_off = ETHERNET_HEADER.scalar_getter("type")

    def guard(nic, m: Mbuf) -> bool:
        if m.length() < header_size:
            return False
        return get_type(raw_storage(m.data), type_off)[0] == ethertype

    return _data(guard, "ethertype_0x%04x" % ethertype,
                 (((1, None, type_off), "==", ethertype),), header_size)


def ip_protocol_guard(protocol: int) -> Callable:
    """Match IP payloads of one protocol number (UDP/TCP/ICMP demux)."""

    def guard(proto: int, m: Mbuf, off: int, src: int, dst: int) -> bool:
        return proto == protocol

    return _data(guard, "ipproto_%d" % protocol, ((0, "==", protocol),))


def udp_dst_port_guard(port: int) -> Callable:
    """Match UDP datagrams destined to one port (endpoint demux).

    This is the anti-snooping edge: the handler behind it can never see a
    datagram for another application's port.
    """

    def guard(m: Mbuf, off: int, src_ip: int, src_port: int,
              dst_ip: int, dst_port: int) -> bool:
        return dst_port == port

    return _data(guard, "udp_port_%d" % port, ((5, "==", port),))


def tcp_port_guard(ports: Collection[int]) -> Callable:
    """Match TCP segments whose destination port is in ``ports``
    (the paper's TCP-special implementation)."""
    port_set: FrozenSet[int] = frozenset(ports)

    def guard(m: Mbuf, off: int, src_ip: int, dst_ip: int) -> bool:
        if m.length() < off + TCP_HEADER.size:
            return False
        header = VIEW(m.data, TCP_HEADER, offset=off)
        return header.dst_port in port_set

    return _data(guard, "tcp_ports_%s" % sorted(port_set),
                 (((0, 1, _TCP_DST_PORT), "in", port_set),), TCP_HEADER.size)


def tcp_standard_guard(special_ports: AbstractSet[int],
                       diverted_ports: AbstractSet[int]) -> Callable:
    """Match TCP segments for the standard implementation: every port
    outside the two *live* sets -- the ports special implementations own
    and the ports IP-level redirects divert -- read at every raise."""

    def guard(m: Mbuf, off: int, src_ip: int, dst_ip: int) -> bool:
        if m.length() < off + TCP_HEADER.size:
            return False
        port = VIEW(m.data, TCP_HEADER, offset=off).dst_port
        return port not in special_ports and port not in diverted_ports

    port = (0, 1, _TCP_DST_PORT)
    return _data(guard, "tcp_standard",
                 ((port, "not in", special_ports),
                  (port, "not in", diverted_ports)), TCP_HEADER.size)


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
    port_at = header_layout.scalar_getter("dst_port")[1]

    def guard(proto: int, m: Mbuf, off: int, src: int, dst: int) -> bool:
        if not proto == ip_protocol:  # as the inlined ``==`` test reads it
            return False
        if m.length() < off + header_layout.size:
            return False
        header = VIEW(m.data, header_layout, offset=off)
        return header.dst_port == port

    return _data(guard, "redirect_%d_port_%d" % (ip_protocol, port),
                 ((0, "==", ip_protocol), ((1, 2, port_at), "==", port)),
                 header_layout.size)
