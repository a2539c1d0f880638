"""Figure 7: TCP redirection latency, Plexus vs user-level splice.

Three hosts on a private Ethernet: a client, the forwarding host (the
service's address), and a backend server.  The client opens a TCP
connection to the service port and plays request/response ping-pong.

* Plexus: the forwarder is an in-kernel redirect node; only the
  client->server leg takes the extra hop, control packets included, and
  the TCP connection is end-to-end between client and backend.
* DIGITAL UNIX: the forwarder is a user-level process splicing two
  sockets; every byte crosses the user/kernel boundary twice at the
  forwarder, in both directions, and the client's TCP terminates at the
  forwarder (no end-to-end semantics -- which the bench verifies by
  inspecting who the client's peer actually is).
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.forwarder import BackendService, PlexusForwarder
from ..core.extension import AppExtension
from ..core.manager import Credential
from ..sim import Signal
from ..unixos.splice import SpliceForwarder
from .stats import summarize
from .testbed import build_testbed

__all__ = ["measure_plexus_forwarding", "measure_unix_forwarding", "figure7"]

_SERVICE_PORT = 8080


def measure_plexus_forwarding(trips: int = 20, payload_len: int = 64,
                              deliver_mode: str = "interrupt") -> Dict:
    """Request/response RTT through the in-kernel redirect."""
    bed = build_testbed("spin", "ethernet", n_hosts=3,
                        deliver_mode=deliver_mode)
    engine = bed.engine
    client_stack, front_stack, backend_stack = bed.stacks
    client_host = bed.hosts[0]

    forwarder = AppExtension.link(
        PlexusForwarder, bed.hosts[1], front_stack.net_domain, _SERVICE_PORT,
        backends=[bed.ip(2)], privileged=True).state
    AppExtension.link(BackendService, bed.hosts[2], backend_stack.net_domain,
                      virtual_ip=bed.ip(1), port=_SERVICE_PORT, echo=True,
                      privileged=True)

    established = Signal(engine)
    reply = Signal(engine)
    samples: List[float] = []
    state = {"tcb": None}

    def start_connect():
        def work():
            tcb = client_stack.tcp_manager.connect(
                Credential("fwd-client"), bed.ip(1), _SERVICE_PORT)
            tcb.on_established = lambda: client_host.defer(established.fire)
            tcb.on_data = lambda data: client_host.defer(reply.fire)
            state["tcb"] = tcb
        yield from client_host.kernel_path(work)

    def ping_loop():
        connect_started = engine.now
        yield from start_connect()
        yield established.wait()
        connect_us = engine.now - connect_started
        payload = bytes(payload_len)
        for _ in range(trips):
            start = engine.now
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda: state["tcb"].send(payload))
            yield waiter
            samples.append(engine.now - start)
        return connect_us

    connect_us = engine.run_process(ping_loop(), name="fwd-ping")
    tcb = state["tcb"]
    return {
        "system": "plexus",
        "rtt": summarize(samples),
        "connect_us": connect_us,
        # End-to-end: the client's connection runs against the backend's
        # TCP (the backend holds the other TCB), not the forwarder's.
        "end_to_end": len(backend_stack.tcp.connections) > 0,
        "forwarded_packets": forwarder.packets_forwarded,
    }


def measure_unix_forwarding(trips: int = 20, payload_len: int = 64) -> Dict:
    """Request/response RTT through the user-level socket splice."""
    bed = build_testbed("unix", "ethernet", n_hosts=3)
    engine = bed.engine
    client_sockets, front_sockets, backend_sockets = bed.sockets

    splice = SpliceForwarder(front_sockets, _SERVICE_PORT,
                             bed.ip(2), _SERVICE_PORT)
    splice.start()

    def backend_proc():
        listener = backend_sockets.tcp_socket()
        yield from listener.listen(_SERVICE_PORT)
        conn = yield from listener.accept()
        while True:
            data = yield from conn.recv()
            if not data:
                return
            yield from conn.send(data)
    engine.process(backend_proc(), name="backend-echo")

    samples: List[float] = []
    payload = bytes(payload_len)
    results = {}

    def client_proc():
        sock = client_sockets.tcp_socket()
        connect_started = engine.now
        yield from sock.connect((bed.ip(1), _SERVICE_PORT))
        results["connect_us"] = engine.now - connect_started
        # The client "established" against the splice before the backend
        # connection even existed: not end-to-end.
        results["peer_is_backend"] = sock.tcb.raddr == bed.ip(2)
        for _ in range(trips):
            start = engine.now
            yield from sock.send(payload)
            got = 0
            while got < payload_len:
                data = yield from sock.recv()
                got += len(data)
            samples.append(engine.now - start)

    engine.run_process(client_proc(), name="fwd-client")
    return {
        "system": "unix-splice",
        "rtt": summarize(samples),
        "connect_us": results["connect_us"],
        "end_to_end": results["peer_is_backend"],
        "forwarded_bytes": splice.bytes_forwarded,
    }


def figure7(trips: int = 20, payload_len: int = 64) -> List[Dict]:
    """Regenerate Figure 7 (plus the end-to-end semantics check)."""
    plexus = measure_plexus_forwarding(trips, payload_len)
    unix = measure_unix_forwarding(trips, payload_len)
    return [plexus, unix]
