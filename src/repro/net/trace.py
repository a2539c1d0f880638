"""Packet tracing: a tcpdump for the simulated testbed.

A :class:`PacketTracer` taps one or more NICs and records every frame
transmitted and received, decoding Ethernet/IP/UDP/TCP headers into
one-line summaries.  Useful in tests (assert on traffic shape), in
examples (show the handshake), and when debugging protocol work.

    tracer = PacketTracer(engine)
    tracer.attach(nic, link_kind="ethernet")
    ...
    print(tracer.render())

The tracer is a listener (``on_tx``/``on_rx``) on each NIC's ``taps``
seam and shares attach/detach and the record ring with the
:mod:`repro.obs` observers (:mod:`repro.obs.taps`).

Decoding is performed with the same VIEW machinery the kernel uses, so a
trace line is also a demonstration of zero-copy header access.
"""

from __future__ import annotations

from typing import Dict, List

from ..lang.view import VIEW
from ..obs.taps import RingTracer
from .headers import (
    ETHERNET_HEADER,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IP_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    ip_ntoa,
)

__all__ = ["PacketTracer", "TraceRecord", "decode_frame"]

_TCP_FLAG_NAMES = [(0x02, "SYN"), (0x10, "ACK"), (0x01, "FIN"),
                   (0x04, "RST"), (0x08, "PSH"), (0x20, "URG")]


def _decode_tcp_options(options: bytes) -> str:
    """tcpdump-style rendering of a TCP options block (RFC 793/1323)."""
    parts = []
    index = 0
    n = len(options)
    while index < n:
        kind = options[index]
        if kind == 0:            # end of option list
            parts.append("eol")
            break
        if kind == 1:            # no-op padding
            parts.append("nop")
            index += 1
            continue
        if index + 1 >= n:
            parts.append("malformed")
            break
        length = options[index + 1]
        if length < 2 or index + length > n:
            parts.append("malformed")
            break
        if kind == 2 and length == 4:       # maximum segment size
            parts.append(
                "mss %d" % int.from_bytes(options[index + 2:index + 4], "big"))
        elif kind == 3 and length == 3:     # window scale (RFC 1323)
            parts.append("ws %d" % options[index + 2])
        else:
            parts.append("opt-%d" % kind)
        index += length
    return ",".join(parts)


def _decode_tcp(data: bytes, off: int) -> str:
    if len(data) < off + TCP_HEADER.size:
        return "tcp <truncated>"
    view = VIEW(data, TCP_HEADER, offset=off)
    flags = view.off_flags & 0x3F
    names = "|".join(name for bit, name in _TCP_FLAG_NAMES if flags & bit)
    header_len = (view.off_flags >> 12) * 4
    payload = len(data) - off - header_len
    text = ("tcp %d>%d [%s] seq=%d ack=%d win=%d len=%d"
            % (view.src_port, view.dst_port, names or ".", view.seq,
               view.ack, view.window, max(payload, 0)))
    options_end = off + header_len
    if header_len > TCP_HEADER.size and len(data) >= options_end:
        text += " opts=[%s]" % _decode_tcp_options(
            bytes(data[off + TCP_HEADER.size:options_end]))
    return text


def _decode_udp(data: bytes, off: int) -> str:
    if len(data) < off + UDP_HEADER.size:
        return "udp <truncated>"
    view = VIEW(data, UDP_HEADER, offset=off)
    return ("udp %d>%d len=%d%s"
            % (view.src_port, view.dst_port, view.length - UDP_HEADER.size,
               " nocsum" if view.checksum == 0 else ""))


_ICMP_TYPE_NAMES = {
    ICMP_ECHO_REPLY: "echo-reply",
    ICMP_ECHO_REQUEST: "echo-request",
    3: "unreachable",
    11: "time-exceeded",
}


def _decode_icmp(data: bytes, off: int) -> str:
    if len(data) < off + ICMP_HEADER.size:
        return "icmp <truncated>"
    view = VIEW(data, ICMP_HEADER, offset=off)
    kind = _ICMP_TYPE_NAMES.get(view.type, "type=%d" % view.type)
    text = "icmp %s" % kind
    if view.type in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
        text += " id=%d seq=%d" % (view.ident, view.seq)
    elif view.code:
        text += " code=%d" % view.code
    payload = len(data) - off - ICMP_HEADER.size
    if payload > 0:
        text += " len=%d" % payload
    return text


def _decode_ip(data: bytes, off: int) -> str:
    if len(data) < off + IP_HEADER.size:
        return "ip <truncated>"
    view = VIEW(data, IP_HEADER, offset=off)
    src, dst = ip_ntoa(view.src), ip_ntoa(view.dst)
    frag = view.frag_off
    prefix = "%s>%s" % (src, dst)
    if frag & 0x3FFF:  # offset or MF
        prefix += " frag@%d%s" % ((frag & 0x1FFF) * 8,
                                  "+" if frag & 0x2000 else "")
        if (frag & 0x1FFF) != 0:
            return "ip %s len=%d" % (prefix, view.total_length)
    payload_off = off + IP_HEADER.size
    if view.protocol == IPPROTO_TCP:
        return "ip %s %s" % (prefix, _decode_tcp(data, payload_off))
    if view.protocol == IPPROTO_UDP:
        return "ip %s %s" % (prefix, _decode_udp(data, payload_off))
    if view.protocol == IPPROTO_ICMP:
        return "ip %s %s" % (prefix, _decode_icmp(data, payload_off))
    return "ip %s proto=%d len=%d" % (prefix, view.protocol,
                                      view.total_length)


def decode_frame(data: bytes, link_kind: str = "ethernet") -> str:
    """One-line human summary of a frame."""
    if link_kind == "ethernet":
        if len(data) < ETHERNET_HEADER.size:
            return "eth <runt %d bytes>" % len(data)
        header = VIEW(data, ETHERNET_HEADER)
        if header.type == ETHERTYPE_IP:
            return _decode_ip(data, ETHERNET_HEADER.size)
        if header.type == ETHERTYPE_ARP:
            return "arp"
        return "eth type=0x%04x len=%d" % (header.type, len(data))
    # Raw links (ATM/T3) carry IP directly.
    return _decode_ip(data, 0)


class TraceRecord:
    """One traced frame."""

    __slots__ = ("time", "nic_name", "direction", "data", "summary")

    def __init__(self, time: float, nic_name: str, direction: str,
                 data: bytes, summary: str):
        self.time = time
        self.nic_name = nic_name
        self.direction = direction  # "tx" or "rx"
        self.data = data
        self.summary = summary

    def __repr__(self) -> str:
        return "<%9.1f %s %s %s>" % (self.time, self.nic_name,
                                     self.direction, self.summary)


class PacketTracer(RingTracer):
    """Records frames crossing the NICs it is attached to.

    At most ``limit`` records are kept (:class:`~repro.obs.taps.RingTracer`).
    A received frame is recorded only when the NIC's address filter
    accepted it (the NIC reports its own verdict to ``on_rx``).
    """

    def __init__(self, engine, limit: int = 10_000):
        super().__init__(engine, limit)
        self._link_kinds: Dict[object, str] = {}

    def attach(self, nic, link_kind: str = "ethernet") -> "PacketTracer":
        """Tap ``nic``: record every frame it sends or receives."""
        self._link_kinds[nic] = link_kind
        return super().attach(nics=(nic,))

    # -- listener interface (nic.taps) -----------------------------------

    def on_tx(self, nic, data) -> None:
        self._trace(nic, "tx", bytes(data))

    def on_rx(self, nic, frame, accepted: bool) -> None:
        if accepted:
            self._trace(nic, "rx", frame.data)

    def _trace(self, nic, direction: str, data: bytes) -> None:
        self._record(TraceRecord(self.engine.now, nic.name, direction, data,
                                 decode_frame(data, self._link_kinds[nic])))

    # -- queries ---------------------------------------------------------

    def matching(self, substring: str) -> List[TraceRecord]:
        return [r for r in self.records if substring in r.summary]

    def _line(self, r: TraceRecord) -> str:
        """tcpdump-style text of one record."""
        return "%10.1f  %-8s %-2s  %s" % (r.time, r.nic_name, r.direction,
                                          r.summary)
