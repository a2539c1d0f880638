"""Protocol header layouts and address helpers.

Every header is declared as a :class:`~repro.lang.layout.Layout`, which
makes it a legal VIEW target (paper section 3.2): guards and handlers cast
raw packet bytes to these layouts with zero copies, exactly as the paper's
Figure 2 does with ``VIEW(m.m_data, Ethernet.T)``.

Addresses: link-level addresses are 6-byte ``bytes`` (Ethernet MACs; the
ATM/T3 models reuse the same width for uniformity); IPv4 addresses are
``int`` (network byte order handled by the layouts), with
:func:`ip_aton`/:func:`ip_ntoa` for dotted-quad conversion.
"""

from __future__ import annotations

import struct

from ..lang.layout import ArrayType, Layout, UINT8, UINT16, UINT32

__all__ = [
    "ETHERNET_HEADER", "ARP_HEADER", "IP_HEADER", "ICMP_HEADER",
    "UDP_HEADER", "TCP_HEADER",
    "ETHERTYPE_IP", "ETHERTYPE_ARP", "ETHER_BROADCAST",
    "IPPROTO_ICMP", "IPPROTO_TCP", "IPPROTO_UDP",
    "ip_aton", "ip_ntoa", "mac_aton",
    "TCP_FIN", "TCP_SYN", "TCP_RST", "TCP_PSH", "TCP_ACK", "TCP_URG",
    "ARP_REQUEST", "ARP_REPLY",
    "ICMP_ECHO_REQUEST", "ICMP_ECHO_REPLY",
]

# -- link layer ---------------------------------------------------------------

ETHERNET_HEADER = Layout("Ethernet.T", [
    ("dst", ArrayType(UINT8, 6)),
    ("src", ArrayType(UINT8, 6)),
    ("type", UINT16),
])

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806
ETHER_BROADCAST = b"\xff" * 6

ARP_HEADER = Layout("Arp.T", [
    ("htype", UINT16),
    ("ptype", UINT16),
    ("hlen", UINT8),
    ("plen", UINT8),
    ("op", UINT16),
    ("sha", ArrayType(UINT8, 6)),
    ("spa", UINT32),
    ("tha", ArrayType(UINT8, 6)),
    ("tpa", UINT32),
])

ARP_REQUEST = 1
ARP_REPLY = 2

# -- network layer -----------------------------------------------------------

IP_HEADER = Layout("Ip.T", [
    ("vhl", UINT8),        # version (4 bits) + header length in words (4 bits)
    ("tos", UINT8),
    ("total_length", UINT16),
    ("ident", UINT16),
    ("frag_off", UINT16),  # flags (3 bits) + fragment offset in 8-byte units
    ("ttl", UINT8),
    ("protocol", UINT8),
    ("checksum", UINT16),
    ("src", UINT32),
    ("dst", UINT32),
])

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

ICMP_HEADER = Layout("Icmp.T", [
    ("type", UINT8),
    ("code", UINT8),
    ("checksum", UINT16),
    ("ident", UINT16),
    ("seq", UINT16),
])

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8

# -- transport layer -----------------------------------------------------------

UDP_HEADER = Layout("Udp.T", [
    ("src_port", UINT16),
    ("dst_port", UINT16),
    ("length", UINT16),
    ("checksum", UINT16),
])

TCP_HEADER = Layout("Tcp.T", [
    ("src_port", UINT16),
    ("dst_port", UINT16),
    ("seq", UINT32),
    ("ack", UINT32),
    ("off_flags", UINT16),  # data offset (4 bits) + reserved + flags (6 bits)
    ("window", UINT16),
    ("checksum", UINT16),
    ("urgent", UINT16),
])

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20


# -- address helpers ------------------------------------------------------------

def ip_aton(dotted: str) -> int:
    """'10.0.0.1' -> 0x0a000001."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError("malformed IPv4 address %r" % dotted)
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("malformed IPv4 address %r" % dotted)
        value = (value << 8) | octet
    return value


def ip_ntoa(address: int) -> str:
    """0x0a000001 -> '10.0.0.1'."""
    if not 0 <= address <= 0xFFFFFFFF:
        raise ValueError("IPv4 address out of range: %r" % address)
    return "%d.%d.%d.%d" % (
        (address >> 24) & 0xFF, (address >> 16) & 0xFF,
        (address >> 8) & 0xFF, address & 0xFF)


def mac_aton(text: str) -> bytes:
    """'00:01:02:03:04:05' -> 6 bytes."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError("malformed MAC address %r" % text)
    return bytes(int(part, 16) for part in parts)


def pseudo_header(src: int, dst: int, protocol: int, length: int) -> bytes:
    """The IPv4 pseudo-header used in UDP/TCP checksums."""
    return struct.pack("!IIBBH", src, dst, 0, protocol, length)


#: Pseudo-header size in bytes (charged per byte like any checksum pass).
PSEUDO_HEADER_LEN = 12


def pseudo_header_sum(src: int, dst: int, protocol: int, length: int) -> int:
    """The 16-bit word sum of the pseudo-header, computed arithmetically.

    Equals ``sum of 16-bit words of pseudo_header(...)`` without building
    any bytes: the zero byte pairs with the protocol byte, so the word is
    just ``protocol``.  Feed the result to ``internet_checksum(data,
    initial=...)`` to fold the pseudo-header into a transport checksum.
    """
    return ((src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
            + protocol + length)
