"""UDP: datagram transport with an *optional* checksum.

The optional checksum is load-bearing for the paper: its motivating
example of an application-specific protocol is "an implementation of UDP
for which the checksum has been disabled" for audio/video applications
(section 1.1).  ``UdpProto.output(..., checksum=False)`` emits a zero
checksum field and receivers skip verification, eliminating the per-byte
checksum cost -- measurably, in the ledger's ``abl.checksum.*`` rows
(``repro.bench.claims``).

Demultiplexing to endpoints is the OS glue's job (Plexus guards / UNIX
PCB table); the ``upcall`` hook receives the parsed datagram.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..spin.mbuf import Mbuf
from .checksum import internet_checksum
from .headers import IPPROTO_UDP, PSEUDO_HEADER_LEN, UDP_HEADER
from .ip import IpProto

# Whole-header struct accessors for the per-datagram paths.
_UDP_PACK = UDP_HEADER.pack_into
_UDP_UNPACK = UDP_HEADER.unpack_from
_UDP_PUT_CKSUM, _UDP_CKSUM_OFF = UDP_HEADER.scalar_putter("checksum")

#: The largest payload a datagram carries: its IP total length, IP and
#: UDP headers included, may not pass 65,535 (RFC 791).
MAX_PAYLOAD = 0xFFFF - IpProto.HEADER_LEN - UDP_HEADER.size  # 65,507

__all__ = ["UdpProto", "MAX_PAYLOAD"]


class UdpProto:
    """UDP bound to one IP instance."""

    HEADER_LEN = UDP_HEADER.size  # 8

    def __init__(self, host, ip: IpProto):
        self.host = host
        self.ip = ip
        #: set by OS glue: fn(m, payload_off, src_ip, src_port, dst_ip, dst_port)
        self.upcall: Optional[Callable] = None
        self.datagrams_in = 0
        self.datagrams_out = 0
        self.checksum_errors = 0
        self.checksums_skipped = 0
        #: datagrams dropped: header truncated, or length past the packet
        self.header_errors = 0

    def register_metrics(self, registry) -> None:
        """Publish the protocol counters on a metrics registry."""
        registry.source("net.udp.datagrams_in", lambda: self.datagrams_in)
        registry.source("net.udp.datagrams_out", lambda: self.datagrams_out)
        registry.source("net.udp.checksum_errors",
                        lambda: self.checksum_errors)
        registry.source("net.udp.header_errors", lambda: self.header_errors)
        registry.source("net.udp.checksums_skipped",
                        lambda: self.checksums_skipped)

    # -- send path ----------------------------------------------------------

    def output(self, m: Mbuf, src_port: int, dst_ip: int, dst_port: int,
               src_ip: Optional[int] = None, checksum: bool = True) -> None:
        """Send payload chain ``m`` as a datagram (plain code)."""
        if not 0 < src_port <= 0xFFFF or not 0 < dst_port <= 0xFFFF:
            raise ValueError("invalid UDP port %r" % (
                src_port if not 0 < src_port <= 0xFFFF else dst_port))
        if m.len > MAX_PAYLOAD:
            raise ValueError("UDP payload of %d bytes exceeds %d"
                             % (m.len, MAX_PAYLOAD))
        host = self.host
        costs = host.costs
        cpu = host.cpu
        # cpu.charge inlined (exact body, exact order): one datagram send
        # per simulated packet makes the charge call frames measurable.
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = costs.udp_output
        stack[-1] += amount
        times["protocol"] += amount
        src_ip = self.ip.my_ip if src_ip is None else src_ip
        length = self.HEADER_LEN + m.len
        packet = m.push(self.HEADER_LEN)
        storage = packet._storage
        start = packet.off
        _UDP_PACK(storage, start, src_port, dst_port, length, 0)
        if checksum:
            # The pseudo-header is folded in arithmetically (initial=);
            # the charge covers it as if the bytes had been summed.
            amount = (PSEUDO_HEADER_LEN + length) * costs.checksum_per_byte
            stack[-1] += amount
            times["checksum"] += amount
            # Header and payload are one window of the store.  The
            # addresses go in whole: 2**16 == 1 mod 0xFFFF, so the sum is
            # congruent to pseudo_header_sum's, and it is never 0.
            value = internet_checksum(
                memoryview(storage)[start:start + length],
                src_ip + dst_ip + IPPROTO_UDP + length)
            _UDP_PUT_CKSUM(storage, start + _UDP_CKSUM_OFF,
                           value if value != 0 else 0xFFFF)
        else:
            self.checksums_skipped += 1
        self.datagrams_out += 1
        self.ip.output(packet, dst_ip, IPPROTO_UDP, src=src_ip)

    # -- receive path -------------------------------------------------------------

    def input(self, m: Mbuf, off: int, src_ip: int, dst_ip: int) -> None:
        """Process a datagram whose UDP header is at ``off`` (plain code)."""
        host = self.host
        cpu = host.cpu
        # cpu.charge inlined (exact body, exact order): hot receive path.
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = host.costs.udp_input
        stack[-1] += amount
        times["protocol"] += amount
        if m.len < off + self.HEADER_LEN:
            self.header_errors += 1
            return
        src_port, dst_port, length, cksum = _UDP_UNPACK(m._storage, m.off + off)
        if length < self.HEADER_LEN or off + length > m.len:
            self.header_errors += 1
            return
        if cksum != 0:
            # Verified where it lies in the store (zero copy).
            start = m.off + off
            segment = memoryview(m._storage)[start:start + length]
            amount = ((PSEUDO_HEADER_LEN + length)
                      * host.costs.checksum_per_byte)
            stack[-1] += amount
            times["checksum"] += amount
            # The pseudo-header folded as on output.
            if internet_checksum(
                    segment, src_ip + dst_ip + IPPROTO_UDP + length) != 0:
                self.checksum_errors += 1
                return
        else:
            self.checksums_skipped += 1
        self.datagrams_in += 1
        # The window ends where the datagram does: bytes past its length
        # (link padding) never reach the receiver.
        m.len = off + length
        if self.upcall is not None:
            self.upcall(m, off + self.HEADER_LEN, src_ip, src_port,
                        dst_ip, dst_port)
