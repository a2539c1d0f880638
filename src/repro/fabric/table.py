"""What a switch reads of a frame: the fields its route and ECMP need.

A switch routes on the destination address alone, by longest prefix,
and an ECMP group hashes the 5-tuple; :class:`PacketFields` parses just
those, once per packet, where the frame's bytes lie.
"""

from __future__ import annotations

import struct

from ..net.headers import IPPROTO_TCP, IPPROTO_UDP

__all__ = ["PacketFields"]

#: What the switch reads of an IPv4 header, in one unpack: version and
#: header length, the flags/fragment-offset word, protocol, source and
#: destination.
_IPV4 = struct.Struct("!B5xHxB2xII")
_IPV4_LEN = _IPV4.size
#: The UDP / TCP source and destination ports, at the header's end.
_PORTS = struct.Struct("!HH")


class PacketFields:
    """Header fields of one raw-link IP frame, parsed once per packet."""

    __slots__ = ("ok", "proto", "src_ip", "dst_ip", "src_port", "dst_port")

    def __init__(self, data) -> None:
        size = len(data)
        if size >= _IPV4_LEN:
            vhl, frag, proto, src_ip, dst_ip = _IPV4.unpack_from(data)
            header_len = (vhl & 0x0F) * 4
            if vhl >> 4 == 4 and _IPV4_LEN <= header_len <= size:
                self.ok = True
                self.proto = proto
                self.src_ip = src_ip
                self.dst_ip = dst_ip
                if (proto == IPPROTO_UDP or proto == IPPROTO_TCP) and \
                        not frag & 0x1FFF and size >= header_len + 4:
                    self.src_port, self.dst_port = \
                        _PORTS.unpack_from(data, header_len)
                else:
                    self.src_port = self.dst_port = 0
                return
        # Not an IPv4 packet the switch can route: every field zero.
        self.ok = False
        self.proto = self.src_ip = self.dst_ip = 0
        self.src_port = self.dst_port = 0
