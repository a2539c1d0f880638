"""IPv4: header construction, checksums, fragmentation, reassembly.

One :class:`IpProto` instance binds a host to one link adapter (every
experiment in the paper exercises one device at a time).  The ``upcall``
hook delivers ``(protocol, mbuf, payload_offset, src, dst)`` upward; under
Plexus that raises ``IP.PacketRecv`` events (guards demux to UDP/TCP per
Figure 1), under the UNIX model it is the classic protosw switch.

Fragmentation and reassembly are real: packets larger than the link MTU
are split on 8-byte boundaries and reassembled at the receiver with a
timeout, so the stack works for datagrams up to 64 KB over any device.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..spin.mbuf import Mbuf
from .checksum import charged_checksum
from .fwdtable import ForwardingTable
from .headers import IP_HEADER, ip_ntoa

# Whole-header struct accessors (one C call instead of one VIEW access
# per field on the per-packet paths).
_IP_PACK = IP_HEADER.pack_into
_IP_UNPACK = IP_HEADER.unpack_from

__all__ = ["IpProto", "IP_BROADCAST"]

IP_BROADCAST = 0xFFFFFFFF
_FLAG_MF = 0x2000
_OFFSET_MASK = 0x1FFF
_FRAGMENT = _FLAG_MF | _OFFSET_MASK     # either set: a fragment
#: RFC 791's 16-bit total length: the largest datagram, header included
_MAX_DATAGRAM = 0xFFFF


class _Reassembly:
    """State for one in-progress datagram reassembly."""

    __slots__ = ("fragments", "total_length", "started_at")

    def __init__(self, started_at: float):
        self.fragments: Dict[int, bytes] = {}  # offset -> payload bytes
        self.total_length: Optional[int] = None
        self.started_at = started_at

    def add(self, offset: int, payload: bytes, last: bool) -> Optional[bytes]:
        self.fragments[offset] = payload
        if last:
            self.total_length = offset + len(payload)
        if self.total_length is None:
            return None
        # Check contiguity.
        cursor = 0
        parts: List[bytes] = []
        while cursor < self.total_length:
            part = self.fragments.get(cursor)
            if not part:
                # Missing, or empty: an empty part cannot move the cursor.
                return None
            parts.append(part)
            cursor += len(part)
        return b"".join(parts)[:self.total_length]


class IpProto:
    """IPv4 bound to one host and one link adapter."""

    HEADER_LEN = IP_HEADER.size  # 20
    DEFAULT_TTL = 64
    REASSEMBLY_TIMEOUT_US = 30_000_000.0  # 30 s, per RFC 791 spirit

    def __init__(self, host, my_ip: int, lower):
        self.host = host
        self.my_ip = my_ip
        self.lower = lower  # .mtu, .send(mbuf, next_hop_ip)
        #: set by OS glue: fn(protocol, m, payload_off, src, dst)
        self.upcall: Optional[Callable] = None
        #: longest-prefix routes (shared LPM core, values = (adapter, gw))
        self.table = ForwardingTable()
        #: dst -> (adapter, next_hop) memo; cleared whenever routes change
        self._route_cache: Dict[int, Tuple[object, int]] = {}
        #: True on routers: packets not for us are forwarded, not dropped
        self.forwarding = False
        self._ident = 0
        self._groups: Set[int] = set()
        self._aliases: Set[int] = set()
        self._reassembly: Dict[Tuple[int, int, int], _Reassembly] = {}
        self.packets_in = 0
        self.fragments_out = 0
        self.fragments_in = 0
        self.reassembled = 0
        self.header_errors = 0
        self.not_for_us = 0
        self.forwarded = 0
        self.ttl_expired = 0

    def register_metrics(self, registry) -> None:
        """Publish the decoder's drop counter on a metrics registry."""
        registry.source("net.ip.header_errors", lambda: self.header_errors)

    # -- configuration ----------------------------------------------------

    def join_group(self, group: int) -> None:
        """Join an IP multicast group (class D)."""
        if (group >> 28) != 0xE:
            raise ValueError("%s is not a class-D multicast address" % ip_ntoa(group))
        self._groups.add(group)

    def leave_group(self, group: int) -> None:
        self._groups.discard(group)

    def add_alias(self, address: int) -> None:
        """Accept ``address`` as our own (virtual-IP service hosting)."""
        self._aliases.add(address)

    def remove_alias(self, address: int) -> None:
        self._aliases.discard(address)

    def add_route(self, network: int, prefix_len: int, adapter=None,
                  gateway: Optional[int] = None) -> None:
        """Install a route: ``dst`` in network/prefix -> adapter[, gateway].

        ``adapter=None`` means this stack's own link.  Routes are matched
        longest-prefix-first; with no match the destination is assumed
        on-link (the single-subnet default of the paper's testbeds).
        """
        self.table.add(network, prefix_len,
                       (adapter if adapter is not None else self.lower,
                        gateway))
        self._route_cache.clear()

    def route_for(self, dst: int):
        """(adapter, next_hop) for ``dst``."""
        hit = self._route_cache.get(dst)
        if hit is not None:
            return hit
        match = self.table.lookup(dst)
        if match is None:
            result = self.lower, dst
        else:
            adapter, gateway = match
            result = adapter, (gateway if gateway is not None else dst)
        self._route_cache[dst] = result
        return result

    # -- send path -----------------------------------------------------------

    def output(self, m: Mbuf, dst: int, protocol: int,
               src: Optional[int] = None, ttl: int = DEFAULT_TTL) -> None:
        """Send payload chain ``m`` to ``dst`` (plain code)."""
        host = self.host
        cpu = host.cpu
        # cpu.charge inlined (exact body, exact order): hot send path.
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = host.costs.ip_output
        stack[-1] += amount
        times["protocol"] += amount
        src = self.my_ip if src is None else src
        self._ident = (self._ident + 1) & 0xFFFF
        ident = self._ident
        payload_len = m.len
        hit = self._route_cache.get(dst)
        adapter, next_hop = hit if hit is not None else self.route_for(dst)
        mtu = adapter.mtu
        total = payload_len + self.HEADER_LEN
        if total <= mtu:
            packet = self._prepend_header(
                m, src, dst, protocol, ident, ttl, frag_field=0,
                total_length=total)
            adapter.send(packet, next_hop)
            return
        if total > _MAX_DATAGRAM:
            raise ValueError("IP datagram of %d bytes exceeds %d"
                             % (total, _MAX_DATAGRAM))
        # Fragment on 8-byte boundaries.
        chunk = ((mtu - self.HEADER_LEN) // 8) * 8
        data = m.to_bytes()
        offset = 0
        while offset < len(data):
            part = data[offset:offset + chunk]
            last = offset + len(part) >= len(data)
            frag_field = (offset // 8) & _OFFSET_MASK
            if not last:
                frag_field |= _FLAG_MF
            frag_m = self.host.mbufs.from_bytes(part, leading_space=64)
            packet = self._prepend_header(frag_m, src, dst, protocol, ident, ttl,
                                          frag_field=frag_field)
            self.fragments_out += 1
            adapter.send(packet, next_hop)
            offset += len(part)

    def _prepend_header(self, m: Mbuf, src: int, dst: int, protocol: int,
                        ident: int, ttl: int, frag_field: int,
                        total_length: Optional[int] = None) -> Mbuf:
        if total_length is None:
            total_length = self.HEADER_LEN + m.len
        packet = m.push(self.HEADER_LEN)
        # The checksum is charged as a pass over the header and computed
        # from its fields: their word sum, modulo 0xFFFF, is the header's
        # (2**16 == 1 mod 0xFFFF folds each address's two words), and it
        # is never zero, so its complement is its negation.
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = self.HEADER_LEN * self.host.costs.checksum_per_byte
        stack[-1] += amount
        cpu.category_times["checksum"] += amount
        _IP_PACK(packet._storage, packet.off, 0x45, 0, total_length, ident,
                 frag_field, ttl, protocol,
                 -(0x4500 + total_length + ident + frag_field + (ttl << 8)
                   + protocol + src + dst) % 0xFFFF, src, dst)
        return packet

    # -- receive path -------------------------------------------------------------

    def input(self, m: Mbuf, off: int) -> None:
        """Process a received packet whose IP header is at ``off``."""
        host = self.host
        cpu = host.cpu
        # cpu.charge inlined (exact body, exact order): hot receive path.
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = host.costs.ip_input
        stack[-1] += amount
        times["protocol"] += amount
        if m.len < off + self.HEADER_LEN:
            self.header_errors += 1
            return
        # The header is read where it lies in the store; only
        # extensions, guards and VIEW need m.data and its read-only window.
        storage = m._storage
        start = m.off + off
        (vhl, tos, total, ident, frag, ttl, protocol, cksum,
         src, dst) = _IP_UNPACK(storage, start)
        # Version 4 and a header of 5 words, in a total that holds it.
        if vhl != 0x45 or total < self.HEADER_LEN:
            self.header_errors += 1
            return
        # The checksum pass, charged, from the fields: a header whose
        # (nonzero) word sum is a multiple of 0xFFFF checks.
        amount = self.HEADER_LEN * host.costs.checksum_per_byte
        stack[-1] += amount
        times["checksum"] += amount
        if (0x4500 + tos + total + ident + frag + (ttl << 8) + protocol
                + cksum + src + dst) % 0xFFFF:
            self.header_errors += 1
            return
        # The datagram must lie within the bytes received, and the window
        # is narrowed to it: link padding past the total length is not
        # payload (BSD ip_input's length check and m_adj).
        end = off + total
        if end > m.len:
            self.header_errors += 1
            return
        m.len = end
        if not (dst in (self.my_ip, IP_BROADCAST) or dst in self._groups
                or dst in self._aliases):
            if self.forwarding:
                self._forward(m, off, ttl, cksum, src, dst)
            else:
                self.not_for_us += 1
            return
        self.packets_in += 1
        payload_off = off + self.HEADER_LEN
        if not frag & _FRAGMENT:
            if self.upcall is not None:
                self.upcall(protocol, m, payload_off, src, dst)
            return
        payload_len = total - self.HEADER_LEN
        frag_offset = (frag & _OFFSET_MASK) * 8
        more = bool(frag & _FLAG_MF)
        # Only the last fragment may be empty.
        if more and not payload_len:
            self.header_errors += 1
            return
        self._input_fragment(m, payload_off, payload_len, src, dst, protocol,
                             ident, frag_offset, more)

    def _input_fragment(self, m: Mbuf, payload_off: int, payload_len: int,
                        src: int, dst: int, protocol: int, ident: int,
                        frag_offset: int, more: bool) -> None:
        self.fragments_in += 1
        self._expire_reassembly()
        key = (src, ident, protocol)
        state = self._reassembly.get(key)
        if state is None:
            state = _Reassembly(self.host.engine.now)
            self._reassembly[key] = state
        payload = m.to_bytes()[payload_off:payload_off + payload_len]
        whole = state.add(frag_offset, payload, last=not more)
        if whole is None:
            return
        del self._reassembly[key]
        if len(whole) + self.HEADER_LEN > _MAX_DATAGRAM:
            # Fragment offsets reach past RFC 791's total length: drop.
            self.header_errors += 1
            return
        self.reassembled += 1
        # Reassembly copies fragment payloads into one buffer: charge it.
        self.host.cpu.charge(len(whole) * self.host.costs.copy_per_byte, "copy")
        datagram = self.host.mbufs.from_bytes(whole, leading_space=0)
        if m.frozen:
            datagram.freeze()
        if self.upcall is not None:
            self.upcall(protocol, datagram, 0, src, dst)

    def _forward(self, m: Mbuf, off: int, ttl: int, cksum: int, src: int,
                 dst: int) -> None:
        """Router path: decrement TTL, re-checksum, emit toward dst, from
        the header fields :meth:`input` unpacked.

        Packets larger than the outbound MTU are fragmented here (RFC 791
        router behaviour), unless DF is set, in which case they are
        dropped (the too-big ICMP is elided).
        """
        if ttl <= 1:
            self.ttl_expired += 1
            # ICMP time-exceeded back to the source (type 11).
            if self.time_exceeded_hook is not None:
                self.time_exceeded_hook(m, off, src)
            return
        adapter, next_hop = self.route_for(dst)
        host = self.host
        cpu = host.cpu
        stack, times = cpu._stack, cpu.category_times
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = host.costs.ip_output
        stack[-1] += amount
        times["protocol"] += amount
        # The packet may be READONLY (Plexus receive path): patch the copy.
        window = memoryview(m._storage)[m.off + off:m.off + m.len]
        if len(window) > adapter.mtu:
            if window[6] & 0x40:  # DF set: cannot fragment, so not forwarded
                self.header_errors += 1
                return
            self.forwarded += 1
            packet = bytearray(window)
            packet[8] -= 1
            self._forward_fragments(packet, adapter, next_hop)
            return
        self.forwarded += 1
        # The restamp, charged as a pass over the header, is incremental
        # (RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m')): ~m + m' = ~0x0100.
        amount = self.HEADER_LEN * host.costs.checksum_per_byte
        stack[-1] += amount
        times["checksum"] += amount
        restamp = 0xFFFF - cksum + 0xFEFF
        restamp = 0xFFFF - ((restamp & 0xFFFF) + (restamp >> 16))
        out = host.mbufs.from_bytes(window, leading_space=16)
        del window  # no export of the received store outlives the copy
        store, at = out._storage, out.off
        store[at + 8], store[at + 10], store[at + 11] = (
            ttl - 1, restamp >> 8, restamp & 0xFF)
        adapter.send(out, next_hop)

    def _forward_fragments(self, packet: bytearray, adapter, next_hop: int) -> None:
        """Split a transit packet for a smaller outbound MTU."""
        header = bytes(packet[:self.HEADER_LEN])
        payload = bytes(packet[self.HEADER_LEN:])
        original_field = int.from_bytes(header[6:8], "big")
        base_offset = (original_field & _OFFSET_MASK) * 8
        original_more = bool(original_field & _FLAG_MF)
        chunk = ((adapter.mtu - self.HEADER_LEN) // 8) * 8
        cursor = 0
        while cursor < len(payload):
            part = payload[cursor:cursor + chunk]
            last = cursor + len(part) >= len(payload)
            frag_field = ((base_offset + cursor) // 8) & _OFFSET_MASK
            if not last or original_more:
                frag_field |= _FLAG_MF
            fragment = bytearray(header) + part
            fragment[2:4] = (self.HEADER_LEN + len(part)).to_bytes(2, "big")
            fragment[6:8] = frag_field.to_bytes(2, "big")
            self.fragments_out += 1
            fragment[10:12] = b"\x00\x00"
            fragment[10:12] = charged_checksum(
                self.host, fragment[:self.HEADER_LEN]).to_bytes(2, "big")
            adapter.send(self.host.mbufs.from_bytes(fragment, leading_space=16),
                         next_hop)
            cursor += len(part)

    #: routers may set this to emit ICMP time-exceeded: fn(m, off, src_ip)
    time_exceeded_hook: Optional[Callable] = None

    def _expire_reassembly(self) -> None:
        now = self.host.engine.now
        expired = [key for key, state in self._reassembly.items()
                   if now - state.started_at > self.REASSEMBLY_TIMEOUT_US]
        for key in expired:
            del self._reassembly[key]
