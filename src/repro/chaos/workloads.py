"""Chaos workloads: deterministic traffic drivers for impaired testbeds.

Each workload sets up flows on a freshly built testbed and returns a
:class:`WorkloadState` describing exactly what every flow sent, so the
invariant registry can verify what arrived.  Workloads must tolerate an
arbitrarily hostile wire: every application callback traps protocol
errors into ``state.errors`` instead of letting them escape into the
engine, where one from a kernel path or timer ends the campaign without
a verdict, and one in a user process nobody yields is kept there unseen.

Payloads are derived from the campaign seed alone, so the byte-exact
delivery check needs no side channel between sender and checker.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List, Optional

from ..net.tcp.tcb import Tcb, TcpState

__all__ = ["Flow", "WorkloadState", "WORKLOADS", "make_payload"]

#: TCP server ports are allocated from here; UDP echo ports from +1000.
TCP_PORT_BASE = 9000
UDP_PORT_BASE = 10000

#: Pacing between UDP datagrams (simulated us); slow enough that a
#: 10 Mb/s Ethernet never queues blindly, fast enough to finish early.
UDP_PACE_US = 3_000.0

UDP_PAYLOAD_BYTES = 256
MIXED_TCP_BYTES = 2_048
MIXED_UDP_DATAGRAMS = 6


def make_payload(seed: int, length: int) -> bytes:
    """The deterministic byte stream flow ``seed`` is expected to carry."""
    return random.Random(seed).randbytes(length)


class Flow:
    """One logical conversation and everything we know it did."""

    def __init__(self, name: str, kind: str, expected: bytes = b""):
        self.name = name
        self.kind = kind              # "stream" or "datagram"
        self.expected = expected      # stream: exact bytes the client sends
        self.received = bytearray()   # stream: bytes the server delivered
        self.echoes: List[bytes] = []  # datagram: echo payloads seen back
        self.datagrams_sent = 0
        self.sent = 0                 # stream bytes handed to tcb.send
        self.fin_sent = False
        self.reset = False            # either end saw a reset / give-up
        self.client_tcb: Optional[Tcb] = None
        self.server_tcb: Optional[Tcb] = None

    def graceful(self) -> bool:
        """Both ends closed cleanly -- full-stream equality is required."""
        return (not self.reset
                and self.client_tcb is not None
                and self.server_tcb is not None
                and self.client_tcb.state == TcpState.CLOSED
                and self.server_tcb.state == TcpState.CLOSED
                and self.sent == len(self.expected))

    def __repr__(self) -> str:
        return "<Flow %s %s sent=%d recv=%d%s>" % (
            self.name, self.kind, self.sent, len(self.received),
            " RESET" if self.reset else "")


class WorkloadState:
    """What a workload did: flows driven, TCBs touched, app-level errors."""

    def __init__(self) -> None:
        self.flows: List[Flow] = []
        self.tcbs: List[Tcb] = []
        self.errors: List[str] = []
        #: optional :class:`repro.obs.slo.RequestLifecycle`: workloads
        #: that set one tag each datagram begin/end so the
        #: ``slo_reconciliation`` invariant can audit the accounting.
        #: It only reads ``engine.now``, so fingerprints are unchanged.
        self.lifecycle = None


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _start_tcp_stream(bed, state: WorkloadState, name: str, src: int,
                      dst: int, port: int, payload: bytes,
                      start_us: float = 0.0) -> Flow:
    """One client(src) -> server(dst) byte-exact stream with clean close."""
    flow = Flow(name, "stream", expected=payload)
    state.flows.append(flow)
    engine = bed.engine
    server_stack = bed.stacks[dst]

    def mark_reset() -> None:
        flow.reset = True

    def on_accept(tcb: Tcb) -> None:
        flow.server_tcb = tcb
        state.tcbs.append(tcb)
        tcb.on_data = flow.received.extend
        tcb.on_reset = mark_reset
        # Peer's FIN arrived: close our half too (we are already in
        # kernel context -- the input path delivered the FIN).
        tcb.on_close = tcb.close

    server_stack.tcp.listen(port, on_accept)

    def run() -> Generator:
        if start_us:
            yield engine.timeout(start_us)

        def connect() -> None:
            tcb = bed.stacks[src].tcp.connect(bed.ip(dst), port)
            flow.client_tcb = tcb
            state.tcbs.append(tcb)
            tcb.on_reset = mark_reset

            def pump(_space: int = 0) -> None:
                try:
                    while flow.sent < len(payload) and tcb.send_space > 0:
                        n = tcb.send(payload[flow.sent:flow.sent + 8192])
                        if n == 0:
                            break
                        flow.sent += n
                    if flow.sent >= len(payload) and not flow.fin_sent:
                        flow.fin_sent = True
                        tcb.close()
                except RuntimeError as exc:  # connection died under us
                    state.errors.append("%s: %s" % (name, exc))
            tcb.on_established = pump
            tcb.on_sendable = pump
        yield from bed.hosts[src].kernel_path(connect)
    engine.process(run(), name="chaos-%s" % name)
    return flow


def _start_udp_echo_spin(bed, state: WorkloadState, name: str, src: int,
                         dst: int, port_offset: int, count: int,
                         start_us: float = 0.0) -> Flow:
    """Spin endpoints: handler extensions echo datagrams in the kernel."""
    from ..core.manager import Credential
    from ..lang.ephemeral import ephemeral

    flow = Flow(name, "datagram")
    state.flows.append(flow)
    engine = bed.engine
    lifecycle = state.lifecycle
    pending: Dict[bytes, object] = {}
    echo_port = UDP_PORT_BASE + 2 * port_offset
    client_port = UDP_PORT_BASE + 2 * port_offset + 1
    server_ep = None

    @ephemeral
    def echo_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        payload = bytes(m.to_bytes()[off:])
        flow.echoes.append(payload)
        # Duplicated echoes pop None; loss leaves the request open.
        request = pending.pop(payload, None)
        if request is not None:
            lifecycle.end(request)

    server_ep = bed.stacks[dst].udp_manager.bind(
        Credential("chaos-echo-%s" % name), echo_port, echo_handler)
    client_ep = bed.stacks[src].udp_manager.bind(
        Credential("chaos-ping-%s" % name), client_port, client_handler)

    def ping_loop() -> Generator:
        if start_us:
            yield engine.timeout(start_us)
        for seq in range(count):
            datagram = _udp_datagram(name, seq)
            if lifecycle is not None:
                pending[datagram] = lifecycle.begin("chaos_udp", (name, seq))
            yield from bed.hosts[src].kernel_path(
                lambda d=datagram: client_ep.send(d, bed.ip(dst), echo_port))
            flow.datagrams_sent += 1
            yield engine.timeout(UDP_PACE_US)
    engine.process(ping_loop(), name="chaos-%s" % name)
    return flow


def _start_udp_echo_unix(bed, state: WorkloadState, name: str, src: int,
                         dst: int, port_offset: int, count: int,
                         start_us: float = 0.0) -> Flow:
    """Unix endpoints: the same echo conversation through sockets."""
    flow = Flow(name, "datagram")
    state.flows.append(flow)
    engine = bed.engine
    lifecycle = state.lifecycle
    pending: Dict[bytes, object] = {}
    echo_port = UDP_PORT_BASE + 2 * port_offset
    client_port = UDP_PORT_BASE + 2 * port_offset + 1

    server_sock = bed.sockets[dst].udp_socket()
    client_sock = bed.sockets[src].udp_socket()

    def server_loop() -> Generator:
        yield from server_sock.bind(echo_port)
        while True:
            data, addr = yield from server_sock.recvfrom()
            yield from server_sock.sendto(data, addr)

    def client_rx_loop() -> Generator:
        while True:
            data, _addr = yield from client_sock.recvfrom()
            payload = bytes(data)
            flow.echoes.append(payload)
            request = pending.pop(payload, None)
            if request is not None:
                lifecycle.end(request)

    def client_tx_loop() -> Generator:
        yield from client_sock.bind(client_port)
        if start_us:
            yield engine.timeout(start_us)
        engine.process(client_rx_loop(), name="chaos-%s-rx" % name)
        for seq in range(count):
            datagram = _udp_datagram(name, seq)
            if lifecycle is not None:
                pending[datagram] = lifecycle.begin("chaos_udp", (name, seq))
            yield from client_sock.sendto(datagram,
                                          (bed.ip(dst), echo_port))
            flow.datagrams_sent += 1
            yield engine.timeout(UDP_PACE_US)
    engine.process(server_loop(), name="chaos-%s-srv" % name)
    engine.process(client_tx_loop(), name="chaos-%s-tx" % name)
    return flow


def _udp_datagram(flow_name: str, seq: int) -> bytes:
    """The unique, self-describing payload of datagram ``seq``."""
    tag = ("%s#%06d|" % (flow_name, seq)).encode()
    body = make_payload(seq * 0x9E3779B1 & 0x7FFFFFFF,
                        UDP_PAYLOAD_BYTES - len(tag))
    return tag + body


def valid_udp_payloads(flow: Flow) -> Dict[bytes, int]:
    """Map of every payload this flow may legally see echoed."""
    return {_udp_datagram(flow.name, seq): seq
            for seq in range(flow.datagrams_sent)}


def _start_udp_echo(bed, state, name, src, dst, port_offset, count,
                    start_us=0.0) -> Flow:
    starter = (_start_udp_echo_spin if bed.os_name == "spin"
               else _start_udp_echo_unix)
    return starter(bed, state, name, src, dst, port_offset, count, start_us)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def tcp_bulk(bed, spec) -> WorkloadState:
    """One bulk byte-exact TCP stream of ``spec.scale`` bytes."""
    state = WorkloadState()
    payload = make_payload(spec.seed ^ 0x5DEECE66, spec.scale)
    _start_tcp_stream(bed, state, "tcp0", 0, 1, TCP_PORT_BASE, payload)
    return state


def udp_echo(bed, spec) -> WorkloadState:
    """``spec.scale`` paced echo round trips on one UDP conversation."""
    from ..obs.slo import RequestLifecycle

    state = WorkloadState()
    state.lifecycle = RequestLifecycle(bed.engine)
    _start_udp_echo(bed, state, "udp0", 0, 1, 0, spec.scale)
    return state


def mixed(bed, spec) -> WorkloadState:
    """A many_flows-style mix: ``spec.scale`` concurrent conversations.

    Even slots are small TCP streams, odd slots are UDP echo flows; starts
    are staggered so connection setup overlaps established traffic.
    """
    state = WorkloadState()
    for i in range(spec.scale):
        start_us = i * 5_000.0
        if i % 2 == 0:
            payload = make_payload(spec.seed ^ (0x1000 + i), MIXED_TCP_BYTES)
            _start_tcp_stream(bed, state, "tcp%d" % i, i % 2, (i + 1) % 2,
                              TCP_PORT_BASE + i, payload, start_us)
        else:
            _start_udp_echo(bed, state, "udp%d" % i, i % 2, (i + 1) % 2,
                            i, MIXED_UDP_DATAGRAMS, start_us)
    return state


WORKLOADS: Dict[str, Callable] = {
    "tcp_bulk": tcp_bulk,
    "udp_echo": udp_echo,
    "mixed": mixed,
}
