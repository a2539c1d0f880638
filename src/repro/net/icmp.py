"""ICMP: echo request/reply plus destination-unreachable generation.

Enough of ICMP to support ``ping``-style examples and the error behaviour
UDP needs (port unreachable), implemented over the shared IP layer.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..lang.view import VIEW
from ..spin.mbuf import Mbuf
from .checksum import charged_checksum
from .headers import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_HEADER,
    IPPROTO_ICMP,
)
from .ip import IpProto

__all__ = ["IcmpProto", "ICMP_UNREACHABLE", "ICMP_UNREACH_PORT",
           "ICMP_TIME_EXCEEDED"]

ICMP_UNREACHABLE = 3
ICMP_UNREACH_PORT = 3
ICMP_TIME_EXCEEDED = 11


class IcmpProto:
    """ICMP bound to one IP instance."""

    def __init__(self, host, ip: IpProto):
        self.host = host
        self.ip = ip
        self.echo_requests_in = 0
        self.echo_replies_in = 0
        self.unreachables_sent = 0
        #: callback fired for echo replies: fn(ident, seq, payload, src)
        self.on_echo_reply: Optional[Callable] = None
        #: callback fired for unreachable errors: fn(code, original_bytes)
        self.on_unreachable: Optional[Callable] = None
        #: callback fired for time-exceeded errors: fn(original_bytes)
        self.on_time_exceeded: Optional[Callable] = None

    # -- send -------------------------------------------------------------

    def _send(self, icmp_type: int, code: int, ident: int, seq: int,
              payload: bytes, dst: int) -> None:
        buf = bytearray(ICMP_HEADER.size + len(payload))
        view = VIEW(buf, ICMP_HEADER)
        view.type = icmp_type
        view.code = code
        view.checksum = 0
        view.ident = ident
        view.seq = seq
        buf[ICMP_HEADER.size:] = payload
        view.checksum = charged_checksum(self.host, buf)
        m = self.host.mbufs.from_bytes(buf, leading_space=64)
        self.ip.output(m, dst, IPPROTO_ICMP)

    def send_echo_request(self, dst: int, ident: int, seq: int,
                          payload: bytes = b"") -> None:
        self.host.cpu.charge(self.host.costs.icmp_process, "protocol")
        self._send(ICMP_ECHO_REQUEST, 0, ident, seq, payload, dst)

    def send_unreachable(self, code: int, original: Mbuf, original_off: int,
                         dst: int) -> None:
        """Send an ICMP destination-unreachable quoting the original header."""
        self.host.cpu.charge(self.host.costs.icmp_process, "protocol")
        self.unreachables_sent += 1
        quote = original.to_bytes()[original_off:original_off + 28]
        self._send(ICMP_UNREACHABLE, code, 0, 0, quote, dst)

    # -- receive -----------------------------------------------------------------

    def send_time_exceeded(self, original: Mbuf, original_off: int,
                           dst: int) -> None:
        """ICMP time-exceeded (type 11), quoting the expired header."""
        self.host.cpu.charge(self.host.costs.icmp_process, "protocol")
        quote = original.to_bytes()[original_off:original_off + 28]
        self._send(ICMP_TIME_EXCEEDED, 0, 0, 0, quote, dst)

    def input(self, m: Mbuf, off: int, src: int, dst: int) -> None:
        """Process a received ICMP message (plain code)."""
        self.host.cpu.charge(self.host.costs.icmp_process, "protocol")
        data = m.data
        if len(data) < off + ICMP_HEADER.size:
            return
        whole = bytes(m.to_bytes()[off:])
        if charged_checksum(self.host, whole) != 0:
            return
        view = VIEW(data, ICMP_HEADER, offset=off)
        payload = whole[ICMP_HEADER.size:]
        if view.type == ICMP_ECHO_REQUEST:
            self.echo_requests_in += 1
            self._send(ICMP_ECHO_REPLY, 0, view.ident, view.seq, payload, src)
        elif view.type == ICMP_ECHO_REPLY:
            self.echo_replies_in += 1
            if self.on_echo_reply is not None:
                self.on_echo_reply(view.ident, view.seq, payload, src)
        elif view.type == ICMP_UNREACHABLE:
            if self.on_unreachable is not None:
                self.on_unreachable(view.code, payload)
        elif view.type == ICMP_TIME_EXCEEDED:
            if self.on_time_exceeded is not None:
                self.on_time_exceeded(payload)
