"""Match-action tables: the programmable half of the switch data plane.

A :class:`MatchTable` matches one parsed header field -- exactly, or by
longest prefix (the LPM core is the same :class:`ForwardingTable` the IP
layer routes with, so prefix semantics cannot diverge between hosts and
switches).  A hit yields a tuple of actions applied in order:

* :class:`Count` -- bump a named counter, keep going,
* :class:`Modify` -- rewrite a header field (checksums re-folded on
  egress), keep going,
* :class:`Forward` -- egress via one port, or ECMP over several; ends
  the pipeline,
* :class:`Drop` -- ends the pipeline.

Tables are control-plane state: installing or withdrawing rules charges
no simulated CPU and takes effect on the very next packet (handlers run
live under the dispatcher, which memoises nothing per packet or flow).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from ..net.checksum import internet_checksum
from ..net.fwdtable import ForwardingTable
from ..net.headers import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    pseudo_header_sum,
)

__all__ = ["Forward", "Drop", "Modify", "Count", "MatchTable",
           "PacketFields", "refold_checksums",
           "MATCH_FIELDS", "MODIFY_FIELDS"]

#: header fields a table may match on
MATCH_FIELDS = ("dst_ip", "src_ip", "proto", "src_port", "dst_port", "ttl")
#: header fields a Modify action may rewrite, with the largest value
#: each holds (an 8-bit TTL / TOS, a 32-bit address)
MODIFY_FIELDS = {"ttl": 0xFF, "tos": 0xFF,
                 "src_ip": 0xFFFFFFFF, "dst_ip": 0xFFFFFFFF}

#: What the pipeline reads of an IPv4 header, in one unpack: version and
#: header length, TOS, the flags/fragment-offset word, TTL, protocol,
#: source and destination.
_IPV4 = struct.Struct("!BB4xHBB2xII")
_IPV4_LEN = _IPV4.size
#: The UDP / TCP source and destination ports, at the header's end.
_PORTS = struct.Struct("!HH")


class Forward:
    """Egress via ``ports[0]``, or ECMP across them when len > 1."""

    __slots__ = ("ports",)

    def __init__(self, *ports: int):
        if not ports:
            raise ValueError("Forward needs at least one egress port")
        self.ports: Tuple[int, ...] = tuple(ports)

    def __repr__(self) -> str:
        return "Forward%r" % (self.ports,)


class Drop:
    """Discard the packet (terminal)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Drop()"


class Modify:
    """Set header ``field`` to ``value``; checksums re-fold on egress."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: int):
        if field not in MODIFY_FIELDS:
            raise ValueError("cannot modify %r (choose from %s)"
                             % (field, tuple(MODIFY_FIELDS)))
        # Checked here, not per packet: a value the field cannot hold
        # would fail every frame the entry matches.
        if not isinstance(value, int) or \
                not 0 <= value <= MODIFY_FIELDS[field]:
            raise ValueError("%s holds 0..%d, not %r"
                             % (field, MODIFY_FIELDS[field], value))
        self.field = field
        self.value = value

    def __repr__(self) -> str:
        return "Modify(%r, %d)" % (self.field, self.value)


class Count:
    """Bump the switch-level counter ``name`` and continue."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return "Count(%r)" % self.name


class PacketFields:
    """Header fields of one raw-link IP frame, parsed once per packet."""

    __slots__ = ("ok", "proto", "src_ip", "dst_ip", "ttl", "tos",
                 "src_port", "dst_port", "header_len", "total_len")

    def __init__(self, data) -> None:
        self.total_len = size = len(data)
        if size >= _IPV4_LEN:
            vhl, tos, frag, ttl, proto, src_ip, dst_ip = \
                _IPV4.unpack_from(data)
            header_len = (vhl & 0x0F) * 4
            if vhl >> 4 == 4 and _IPV4_LEN <= header_len <= size:
                self.ok = True
                self.header_len = header_len
                self.tos = tos
                self.ttl = ttl
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
        # Not an IPv4 packet the pipeline can match: every field zero.
        self.ok = False
        self.header_len = self.tos = self.ttl = self.proto = 0
        self.src_ip = self.dst_ip = self.src_port = self.dst_port = 0


_FIELD_WRITERS = {
    # field -> fn(buf, value); returns True if l4 checksum must be
    # re-folded too (pseudo-header fields changed).  ``Modify`` checked
    # that the value fits.
    "ttl": lambda buf, v: buf.__setitem__(8, v) or False,
    "tos": lambda buf, v: buf.__setitem__(1, v) or False,
    "src_ip": lambda buf, v:
        buf.__setitem__(slice(12, 16), v.to_bytes(4, "big")) or True,
    "dst_ip": lambda buf, v:
        buf.__setitem__(slice(16, 20), v.to_bytes(4, "big")) or True,
}


def apply_modify(buf: bytearray, fields: PacketFields, action: Modify) -> bool:
    """Write ``action`` into ``buf`` and re-parse ``fields`` views.

    Returns True when the L4 checksum needs re-folding (an address
    changed, so the pseudo-header changed).
    """
    l4 = _FIELD_WRITERS[action.field](buf, action.value)
    setattr(fields, action.field, action.value)
    return l4


def refold_checksums(buf: bytearray, refold_l4: bool = False) -> None:
    """Recompute the IP header checksum (and optionally UDP/TCP) in place.

    ``buf`` holds a raw-link IP frame.  The IP checksum is always
    re-folded; ``refold_l4`` additionally recomputes the transport
    checksum over payload + pseudo-header (needed whenever an address
    was rewritten).  A UDP checksum of zero means "unchecked" and stays
    zero, per RFC 768.
    """
    header_len = (buf[0] & 0x0F) * 4
    buf[10:12] = b"\x00\x00"
    buf[10:12] = internet_checksum(buf[:header_len]).to_bytes(2, "big")
    if not refold_l4:
        return
    proto = buf[9]
    if proto not in (IPPROTO_UDP, IPPROTO_TCP):
        return
    frag = int.from_bytes(buf[6:8], "big")
    if frag & 0x1FFF:
        return
    src = int.from_bytes(buf[12:16], "big")
    dst = int.from_bytes(buf[16:20], "big")
    segment = memoryview(buf)[header_len:]
    cksum_off = 6 if proto == IPPROTO_UDP else 16
    if len(segment) < cksum_off + 2:
        return
    if proto == IPPROTO_UDP and segment[cksum_off:cksum_off + 2] == b"\x00\x00":
        return  # sender opted out of UDP checksums
    segment[cksum_off:cksum_off + 2] = b"\x00\x00"
    folded = internet_checksum(
        segment, initial=pseudo_header_sum(src, dst, proto, len(segment)))
    if proto == IPPROTO_UDP and folded == 0:
        folded = 0xFFFF  # RFC 768: transmitted as all-ones
    segment[cksum_off:cksum_off + 2] = folded.to_bytes(2, "big")


class MatchTable:
    """One match-action stage: ``field`` matched exactly or by prefix."""

    def __init__(self, name: str, field: str, kind: str = "exact",
                 default: Optional[Tuple] = None):
        if field not in MATCH_FIELDS:
            raise ValueError("cannot match %r (choose from %s)"
                             % (field, MATCH_FIELDS))
        if kind not in ("exact", "lpm"):
            raise ValueError("kind must be 'exact' or 'lpm'")
        if kind == "lpm" and field not in ("dst_ip", "src_ip"):
            raise ValueError("LPM tables match IP address fields")
        self.name = name
        self.field = field
        self.kind = kind
        #: actions applied on a miss; None falls through to the next table
        self.default: Optional[Tuple] = (tuple(default)
                                         if default is not None else None)
        self._exact: Dict[int, Tuple] = {}
        self._lpm = ForwardingTable()
        self.hits = 0
        self.misses = 0
        self.updates = 0

    def __len__(self) -> int:
        return len(self._exact) if self.kind == "exact" else len(self._lpm)

    def set(self, key: int, actions: Tuple, prefix_len: Optional[int] = None
            ) -> None:
        """Install ``key -> actions`` (``prefix_len`` required for LPM)."""
        actions = tuple(actions)
        if not actions:
            raise ValueError("an entry needs at least one action")
        self.updates += 1
        if self.kind == "exact":
            if prefix_len is not None:
                raise ValueError("prefix_len is an LPM concept")
            self._exact[key] = actions
        else:
            if prefix_len is None:
                raise ValueError("LPM entries need a prefix_len")
            # Replace-on-reinstall: a withdrawn prefix must not shadow.
            self._lpm.remove(key, prefix_len)
            self._lpm.add(key, prefix_len, actions)

    def remove(self, key: int, prefix_len: Optional[int] = None) -> bool:
        self.updates += 1
        if self.kind == "exact":
            return self._exact.pop(key, None) is not None
        if prefix_len is None:
            raise ValueError("LPM removal needs a prefix_len")
        return self._lpm.remove(key, prefix_len)

    def lookup(self, fields: PacketFields) -> Optional[Tuple]:
        """Actions for this packet: an entry's, the default's, or None."""
        value = getattr(fields, self.field)
        if self.kind == "exact":
            actions = self._exact.get(value)
        else:
            actions = self._lpm.lookup(value)
        if actions is not None:
            self.hits += 1
            return actions
        self.misses += 1
        return self.default

    def register_metrics(self, registry) -> None:
        registry.source("fabric.table.hits", lambda: self.hits)
        registry.source("fabric.table.misses", lambda: self.misses)
        registry.source("fabric.table.updates", lambda: self.updates)
        registry.source("fabric.table.entries", lambda: len(self))
