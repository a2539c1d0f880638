"""TCP protocol entry: segment wire format, demux, listeners.

One :class:`TcpProto` instance is one TCP *implementation* in the sense of
paper section 3.1 ("Multiple protocol implementations"): several instances
can coexist on one host, each fed by a guard that claims part of the port
space (``TCP-standard`` vs ``TCP-special`` in the paper's example).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...hw.cpu import OUTSIDE_PATH, ChargeError
from ...spin.mbuf import Mbuf
from ..checksum import internet_checksum
from ..headers import (IPPROTO_TCP, PSEUDO_HEADER_LEN, TCP_HEADER,
                       pseudo_header_sum)
from ..ip import IpProto
from .tcb import ACK, RST, SYN, Tcb, seq_add

__all__ = ["TcpProto", "TcpListener"]

# Whole-header struct accessors for the per-segment paths.
_TCP_PACK = TCP_HEADER.pack_into
_TCP_UNPACK = TCP_HEADER.unpack_from
_TCP_PUT_CKSUM, _TCP_CKSUM_OFF = TCP_HEADER.scalar_putter("checksum")

ConnKey = Tuple[int, int, int, int]  # laddr, lport, raddr, rport


class TcpListener:
    """A passive endpoint accepting connections on one local port."""

    def __init__(self, proto: "TcpProto", lport: int,
                 on_accept: Callable[[Tcb], None], backlog: int = 8):
        self.proto = proto
        self.lport = lport
        self.on_accept = on_accept
        self.backlog = backlog
        self.pending = 0
        self.accepted = 0
        self.closed = False

    def close(self) -> None:
        self.closed = True
        self.proto.listeners.pop(self.lport, None)

    def _child_established(self, tcb: Tcb) -> None:
        self.pending -= 1
        self.accepted += 1
        if self.on_accept is not None:
            self.on_accept(tcb)


class TcpProto:
    """TCP bound to one IP instance."""

    HEADER_LEN = TCP_HEADER.size  # 20
    EPHEMERAL_BASE = 32768

    def __init__(self, host, ip: IpProto, name: str = "tcp"):
        self.host = host
        self.ip = ip
        self.name = name
        self.default_mss = max(512, ip.lower.mtu - 40)
        self.connections: Dict[ConnKey, Tcb] = {}
        self.listeners: Dict[int, TcpListener] = {}
        #: local port -> number of live connections bound to it.  Kept in
        #: lockstep with ``connections`` so ephemeral-port allocation is a
        #: dict probe instead of a scan over every 4-tuple -- the scan is
        #: O(flows) per connect and quadratic across a many-flow ramp-up.
        self._lport_refs: Dict[int, int] = {}
        self._iss = 1000
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.segments_in = 0
        self.segments_out = 0
        self.checksum_errors = 0
        #: segments dropped shorter than the fixed header, or (checksum
        #: valid) with a malformed data offset
        self.header_errors = 0
        self.resets_sent = 0
        self.no_listener = 0

    def register_metrics(self, registry) -> None:
        """Publish the protocol counters on a metrics registry."""
        registry.source("net.tcp.segments_in", lambda: self.segments_in)
        registry.source("net.tcp.segments_out", lambda: self.segments_out)
        registry.source("net.tcp.checksum_errors",
                        lambda: self.checksum_errors)
        registry.source("net.tcp.header_errors", lambda: self.header_errors)
        registry.source("net.tcp.resets_sent", lambda: self.resets_sent)
        registry.source("net.tcp.no_listener", lambda: self.no_listener)
        registry.source("net.tcp.connections", lambda: len(self.connections))

    # -- connection management ---------------------------------------------

    def next_iss(self) -> int:
        self._iss = (self._iss + 64_000) & 0xFFFFFFFF
        return self._iss

    def allocate_port(self) -> int:
        for _ in range(0x10000 - self.EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self.listeners and port not in self._lport_refs:
                return port
        raise RuntimeError("out of ephemeral ports")

    def _register(self, key: ConnKey, tcb: Tcb) -> None:
        self.connections[key] = tcb
        refs = self._lport_refs
        refs[key[1]] = refs.get(key[1], 0) + 1

    def connect(self, raddr: int, rport: int,
                lport: Optional[int] = None) -> Tcb:
        """Active open (plain code; kernel context)."""
        lport = lport or self.allocate_port()
        key = (self.ip.my_ip, lport, raddr, rport)
        if key in self.connections:
            raise RuntimeError("connection %r already exists" % (key,))
        tcb = Tcb(self, self.ip.my_ip, lport, raddr, rport)
        self._register(key, tcb)
        tcb.connect()
        return tcb

    def listen(self, lport: int, on_accept: Callable[[Tcb], None],
               backlog: int = 8) -> TcpListener:
        if lport in self.listeners:
            raise RuntimeError("port %d already has a listener" % lport)
        listener = TcpListener(self, lport, on_accept, backlog)
        self.listeners[lport] = listener
        return listener

    def forget(self, tcb: Tcb) -> None:
        key = (tcb.laddr, tcb.lport, tcb.raddr, tcb.rport)
        if self.connections.pop(key, None) is not None:
            refs = self._lport_refs
            remaining = refs.get(key[1], 0) - 1
            if remaining > 0:
                refs[key[1]] = remaining
            else:
                refs.pop(key[1], None)

    # -- segment emission --------------------------------------------------------

    def send_segment(self, tcb: Tcb, seq: int, ack: int, flags: int,
                     window: int, payload: bytes) -> None:
        """Build and transmit one segment (plain code).

        SYN segments carry the MSS option (RFC 879), so endpoints with
        different link MTUs converge on the smaller maximum.
        """
        host = self.host
        # cpu.charge inlined (exact body, exact order): per-segment path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = host.costs.tcp_output
        stack[-1] += amount
        times["protocol"] += amount
        header_len = self.HEADER_LEN
        if flags & 0x02:  # SYN: room for the MSS option
            header_len += 4
        length = header_len + len(payload)
        # The payload goes in behind room for the header, and the window
        # opens over it: push(header_len)'s headroom branch, inline.  The
        # links are the ones from_bytes(header + payload, 64) counts.
        m = Mbuf.from_bytes(payload, 64 + header_len)
        m.off = start = 64
        m.len = length
        storage = m._storage
        _TCP_PACK(storage, start, tcb.lport, tcb.rport, seq, ack,
                  ((header_len // 4) << 12) | flags,
                  window if window < 0xFFFF else 0xFFFF, 0, 0)
        if flags & 0x02:  # SYN: advertise our MSS
            storage[start + self.HEADER_LEN:start + header_len] = \
                bytes([2, 4]) + self.default_mss.to_bytes(2, "big")
        amount = (PSEUDO_HEADER_LEN + length) * host.costs.checksum_per_byte
        stack[-1] += amount
        times["checksum"] += amount
        _TCP_PUT_CKSUM(storage, start + _TCP_CKSUM_OFF, internet_checksum(
            memoryview(storage)[start:start + length], tcb.pseudo_sum + length))
        host.mbufs._charge_alloc(m)
        self.segments_out += 1
        self.ip.output(m, tcb.raddr, IPPROTO_TCP, src=tcb.laddr)

    @staticmethod
    def _parse_mss_option(options: bytes):
        """Scan TCP options for the MSS value (kind 2)."""
        index = 0
        while index < len(options):
            kind = options[index]
            if kind == 0:       # end of options
                return None
            if kind == 1:       # no-op
                index += 1
                continue
            if index + 1 >= len(options):
                return None
            length = options[index + 1]
            if length < 2 or index + length > len(options):
                return None     # malformed: ignore the rest
            if kind == 2 and length == 4:
                return int.from_bytes(options[index + 2:index + 4], "big")
            index += length
        return None

    def _send_rst(self, src_ip: int, src_port: int, dst_ip: int, dst_port: int,
                  seq: int, ack: int, with_ack: bool) -> None:
        self.host.cpu.charge(self.host.costs.tcp_output, "protocol")
        self.resets_sent += 1
        m = Mbuf.from_bytes(b"", 64 + self.HEADER_LEN).push(self.HEADER_LEN)
        storage = m._storage
        start = m.off
        _TCP_PACK(storage, start, dst_port, src_port, seq, ack,
                  (5 << 12) | RST | (ACK if with_ack else 0), 0, 0, 0)
        self.host.cpu.charge(
            (PSEUDO_HEADER_LEN + self.HEADER_LEN)
            * self.host.costs.checksum_per_byte, "checksum")
        _TCP_PUT_CKSUM(storage, start + _TCP_CKSUM_OFF, internet_checksum(
            storage[start:start + self.HEADER_LEN],
            pseudo_header_sum(dst_ip, src_ip, IPPROTO_TCP, self.HEADER_LEN)))
        self.host.mbufs._charge_alloc(m)
        self.ip.output(m, src_ip, IPPROTO_TCP, src=dst_ip)

    # -- segment input ---------------------------------------------------------------

    def input(self, m: Mbuf, off: int, src_ip: int, dst_ip: int) -> None:
        """Process a segment whose TCP header is at ``off`` (plain code)."""
        host = self.host
        # cpu.charge inlined (exact body, exact order): per-segment path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = host.costs.tcp_input
        stack[-1] += amount
        times["protocol"] += amount
        seg_len = m.len - off
        if seg_len < self.HEADER_LEN:
            self.header_errors += 1
            return
        # The segment is checksummed where it lies in the store, no copy.
        start = m.off + off
        segment = memoryview(m._storage)[start:start + seg_len]
        (src_port, dst_port, seq, ack, off_flags, window, _cksum,
         _urgent) = _TCP_UNPACK(segment, 0)
        # Looked up first for its pseudo-header sum, used once it checks.
        key = (dst_ip, dst_port, src_ip, src_port)
        tcb = self.connections.get(key)
        amount = (PSEUDO_HEADER_LEN + seg_len) * host.costs.checksum_per_byte
        stack[-1] += amount
        times["checksum"] += amount
        if internet_checksum(
                segment,
                initial=tcb.pseudo_sum + seg_len if tcb is not None else
                pseudo_header_sum(src_ip, dst_ip, IPPROTO_TCP, seg_len)) != 0:
            self.checksum_errors += 1
            return
        data_off = (off_flags >> 12) * 4
        if data_off < self.HEADER_LEN or data_off > seg_len:
            # RFC 793: a header of fewer than five words, or more than the
            # segment holds, is malformed.  Dropped silently, like a bad
            # checksum: no RST, no ACK, no state change.
            self.header_errors += 1
            return
        flags = off_flags & 0x3F
        payload = bytes(segment[data_off:])
        mss = None
        if data_off > self.HEADER_LEN:
            mss = self._parse_mss_option(
                bytes(segment[self.HEADER_LEN:data_off]))
        self.segments_in += 1

        if tcb is not None:
            tcb.input(seq, ack, flags, window, payload, mss)
            return

        listener = self.listeners.get(dst_port)
        if listener is not None and not listener.closed and (flags & SYN) and \
                not (flags & ACK):
            if listener.pending >= listener.backlog:
                return  # silently drop: SYN will be retransmitted
            child = Tcb(self, dst_ip, dst_port, src_ip, src_port, passive=True)
            self._register(key, child)
            listener.pending += 1
            child.on_established = (
                lambda lst=listener, c=child: lst._child_established(c))
            child.accept_syn(seq, window, mss)
            return

        # No connection, no listener: RST (unless the segment was a RST).
        self.no_listener += 1
        if flags & RST:
            return
        if flags & ACK:
            self._send_rst(src_ip, src_port, dst_ip, dst_port,
                           seq=ack, ack=0, with_ack=False)
        else:
            self._send_rst(src_ip, src_port, dst_ip, dst_port, seq=0,
                           ack=seq_add(seq, seg_len - data_off + 1),
                           with_ack=True)
