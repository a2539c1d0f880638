"""The workload registry and its one runner.

Every scenario the harness can drive -- Figure 5's ping-pong and section
4.2's bulk transfer, the many-flows origins, the fabric, the latency
suite's open/closed legs and its decomposition probes -- is one
declarative :class:`Workload` record in
:data:`WORKLOADS`: how to build the bed, how to wire the scenario onto it
(``setup(bed, scale, lifecycle=None) -> (state, main)``), what its
simulated-time fingerprint is, and its scale.  Ports, host indices, start
offsets, gap plans, payload sizes and reply disciplines are data on the
record, so a scenario family (the UDP echo, the TCP stream, the serial
TCP object server, the many-flows origin) is written once and registered
several times.  The echo and the stream have a SPIN and a UNIX half,
picked by the bed's OS, as the paper runs one conversation on both.

One function runs records: :func:`run_once` (build -> instrument ->
setup -> run -> record, on a single engine, in this process).
``--latency`` and ``python -m repro.obs --workload`` go through it.
Figure 5 and section 4.2
(:mod:`repro.bench.latency`, :mod:`repro.bench.throughput`) wire the
same ``setup`` functions onto beds of their own through
:func:`run_scenario`, and ``repro.chaos`` starts them on impaired beds.

Each result carries a **fingerprint** of simulated-time outputs, the
only thing the gate judges: any substrate change must leave every field
*bit-identical*, because the simulation is deterministic.  Every
scenario sends seeded bytes and its fingerprint function first checks
what arrived -- streams and objects byte-exact, each echo exactly once --
raising on a mismatch.  A result holds nothing host-timed: host speed
and footprint are measured by ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import functools
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..core.manager import Credential
from ..fabric.topology import fat_tree
from ..fabric.traffic import OpenLoopSource
from ..hw.alpha import MICROSECONDS_PER_SECOND
from ..hw.link import ImpairmentConfig
from ..lang.ephemeral import ephemeral
from ..net.headers import ip_aton
from ..obs.wire import instrument_testbed
from ..sim import Signal, SimulationError
from ..unixos.sockets import Poller, SocketError
from .testbed import build_testbed

__all__ = ["Workload", "WORKLOADS", "PINGPONG", "schedule", "run_once",
           "run_scenario", "run_workload"]


@dataclass(frozen=True)
class Workload:
    """One registered scenario.  Its scale is part of the fingerprint
    contract: changing it changes the expected fingerprints."""

    name: str
    #: ``build() -> bed``
    build: Callable
    #: ``setup(bed, scale, lifecycle=None) -> (state, main)``: the mutable
    #: counters and a zero-argument callable producing the main generator.
    #: ``state["until"]``, when set, bounds the run in simulated us (a
    #: lost frame then leaves a request open instead of hanging).
    setup: Callable
    #: ``fingerprint(state, bed) -> dict`` of simulated-time outputs
    fingerprint: Callable
    #: the scale ``--latency`` and ``repro.obs`` run it at
    scale: int
    #: request kinds a :class:`~repro.obs.slo.RequestLifecycle` sees
    kinds: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# scenario building blocks
# ---------------------------------------------------------------------------

def _pair(os_name: str, device: str) -> Callable:
    """Bed builder: two machines of one OS on one medium."""
    return functools.partial(build_testbed, os_name, device,
                             deliver_mode="interrupt")


def _begin(lifecycle, kind: str, seq=None):
    return None if lifecycle is None else lifecycle.begin(kind, seq)


def _end(lifecycle, request) -> None:
    if request is not None:
        lifecycle.end(request)


#: drain slack appended to an open-loop schedule's last departure (us).
_SLACK_US = 200_000.0


def schedule(leg: str, n: int):
    """A latency leg's arrival draws: ``n`` (gap_us, size) rows, a pure
    function of the leg name ``<workload>@g<mean gap us>`` -- the open
    and closed twins of a leg replay the same list."""
    source = OpenLoopSource(
        seed=zlib.crc32(("slo:" + leg).encode("utf-8")) & 0x7FFFFFFF,
        arrival="poisson", mean_gap_us=float(leg.split("@g", 1)[1]),
        size_dist="fixed", fixed_size=64, min_size=32, max_size=1400)
    return source.schedule(n)


def _horizon(plan, closed: bool, until: Optional[float]) -> Optional[float]:
    """A closed loop is self-clocked, so its main process bounds the run;
    an open one runs to the end of its schedule plus drain slack."""
    if until is None and not closed:
        until = sum(gap for gap, _size in plan) + _SLACK_US
    return until


def _seeded_bytes(seed: int, length: int) -> bytes:
    """Seeded bytes: no charge reads content, so they simulate as zeros."""
    return random.Random(seed).randbytes(length)


#: the payload seed of the registry's own scenarios
_SEED = 1996


def _verify(state, mismatch: Optional[str] = None) -> None:
    """A fingerprint is only read from a run that delivered what it
    sent: raise on an error the scenario trapped, or on ``mismatch``."""
    problems = state["errors"] + ([mismatch] if mismatch else [])
    if problems:
        raise SimulationError("delivery check failed: " + "; ".join(problems))


def _spawn(state, engine, generator, name: str) -> None:
    """Start a child process the scenario never yields."""
    state.setdefault("children", []).append(engine.process(generator, name=name))


@contextlib.contextmanager
def _children_surfaced(state) -> Iterator[None]:
    """Re-raise the first failure of a :func:`_spawn`-ed child after a
    run, also over the deadlock the failure left behind."""
    try:
        yield
    finally:
        for child in state.get("children", ()):
            if child.triggered and not child.ok:
                child.value


@ephemeral
def _seq(data) -> int:
    # int.from_bytes is not on the ephemeral safe list
    return (data[0] << 24) | (data[1] << 16) | (data[2] << 8) | data[3]


def run_scenario(bed, setup: Callable, scale: int, fingerprint: Callable,
                 lifecycle=None) -> Dict:
    """Run a scenario to the end of its main process on a caller's bed;
    returns its (delivery-checked) fingerprint."""
    state, main = setup(bed, scale, lifecycle)
    with _children_surfaced(state):
        bed.engine.run_process(main(), name="scenario")
    return fingerprint(state, bed)


# ---------------------------------------------------------------------------
# the UDP echo (Figure 5's inner loop), on either OS
# ---------------------------------------------------------------------------

def _udp_echo(ports, creds, kind: str, payload: int = 8,
              plan_of: Optional[Callable] = None, closed: bool = True,
              mode: str = "inline", checksum: bool = True, hosts=(0, 1),
              start_us: float = 0.0, seed: int = _SEED):
    """UDP ping-pong from host ``hosts[0]`` to an echo on ``hosts[1]``,
    ``start_us`` into the run.  On SPIN both ends are in-kernel Plexus
    extensions bound in ``mode``; on UNIX, socket processes (Figure 5's
    DIGITAL UNIX bar).

    Unpaced, ``scale`` back-to-back round trips of ``payload`` bytes, each
    request ended where the client resumes.  ``plan_of(scale)`` instead
    lists each datagram's (gap_us, size) after the previous one, each
    request ended where its reply lands, and ``closed=False`` keeps the
    plan regardless of replies (open loop).  A datagram is its sequence
    number ahead of seeded bytes, so replies in flight are told apart and
    the fingerprint checks that each was echoed once, byte for byte.
    """
    server_port, client_port = ports
    paced = plan_of is not None

    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        client, server = hosts
        address = (bed.ip(server), server_port)
        plan = plan_of(scale) if paced else [(None, payload)] * scale
        body = _seeded_bytes(seed, max([size for _gap, size in plan] or [4]))
        state = {"trips": scale, "samples": [], "sent": [], "echoes": [],
                 "errors": [],
                 "until": _horizon(plan, closed, None) if paced else None}
        if paced:
            # Open-loop UDP has no retransmit: a ring drop parks its
            # request forever and, worse, nondeterministically under
            # load.  Provision for the whole schedule.
            for nic in bed.nics:
                nic.provision_rings(max(256, scale))
        pending: Dict[int, object] = {}     # paced: seq -> open request

        @ephemeral
        def echoed(data):
            state["echoes"].append(data)
            request = pending.pop(_seq(data), None)
            if request is not None:
                lifecycle.end(request)

        if bed.os_name == "spin":
            reply_seen = Signal(engine)
            server_ep = None

            @ephemeral
            def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
                server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

            @ephemeral
            def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
                echoed(bytes(m.to_bytes()[off:]))
                if paced:
                    reply_seen.fire()
                else:
                    bed.hosts[client].defer(reply_seen.fire)

            server_ep = bed.stacks[server].udp_manager.bind(
                Credential(creds[0]), server_port, server_handler, mode=mode,
                checksum=checksum)
            client_ep = bed.stacks[client].udp_manager.bind(
                Credential(creds[1]), client_port, client_handler, mode=mode,
                checksum=checksum)

            def opening():
                return ()

            def exchange(data):
                waiter = reply_seen.wait() if closed else None
                yield from bed.hosts[client].kernel_path(
                    lambda: client_ep.send(data, *address))
                if closed:
                    yield waiter
        else:
            server_sock = bed.sockets[server].udp_socket()
            client_sock = bed.sockets[client].udp_socket()

            def serve():
                yield from server_sock.bind(server_port)
                while True:
                    data, addr = yield from server_sock.recvfrom()
                    yield from server_sock.sendto(data, addr, checksum)

            def receive(forever: bool = False):
                while True:
                    data, _addr = yield from client_sock.recvfrom()
                    echoed(data)
                    if not forever:
                        return

            def opening():
                yield from client_sock.bind(client_port)
                if not closed:      # replies land in a process of their own
                    engine.process(receive(True), name="udp-echo-replies")

            def exchange(data):
                yield from client_sock.sendto(data, address, checksum)
                if closed:
                    yield from receive()

            engine.process(serve(), name="udp-echo")

        def main():
            yield from opening()
            if start_us:
                yield engine.timeout(start_us)
            for seq, (gap_us, size) in enumerate(plan):
                if paced:
                    yield engine.timeout(gap_us)
                data = seq.to_bytes(4, "big") + body[:size - 4]
                state["sent"].append(data)
                request = _begin(lifecycle, kind, seq)
                if paced:
                    pending[seq] = request
                start = engine.now
                yield from exchange(data)
                if closed:
                    state["samples"].append(engine.now - start)
                    if not paced:
                        _end(lifecycle, request)

        return state, main

    return setup


def _udp_echo_fingerprint(state, bed) -> Dict:
    _verify(state, None if sorted(state["echoes"]) == sorted(state["sent"])
            else "%d datagrams, %d echoes: not each echoed once, byte-exact"
            % (len(state["sent"]), len(state["echoes"])))
    samples = state["samples"]
    return {
        "trips": state["trips"],
        "mean_rtt_us": sum(samples) / len(samples) if samples else None,
        "final_now_us": bed.engine.now,
    }


def _udp_echo_record(name: str, scale: int, **scenario) -> Workload:
    return Workload(
        name=name, build=_pair("spin", "ethernet"),
        setup=_udp_echo(**scenario), fingerprint=_udp_echo_fingerprint,
        scale=scale, kinds=(scenario["kind"],))


# ---------------------------------------------------------------------------
# the TCP stream (section 4.2's inner loop), on either OS
# ---------------------------------------------------------------------------

_CHUNK = 32 * 1024


def _tcp_stream(port: int = 9000, hosts=(0, 1), start_us: float = 0.0,
                close: bool = False, seed: int = _SEED):
    """Bulk TCP of ``scale`` seeded bytes from host ``hosts[0]`` to
    ``hosts[1]``, ``start_us`` into the run, in 32 KB writes.  On SPIN both
    ends are in-kernel extensions on the TCP manager; on UNIX, section
    4.2's socket processes.  With ``close`` the sender closes after its
    last write, as section 4.2's program does; the receiver closes on the
    sender's FIN.  Protocol errors are trapped into the state.
    """
    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        sender, receiver = hosts
        payload = _seeded_bytes(seed, scale)
        state = {"payload": payload, "delivered": bytearray(), "sent": 0,
                 "segments": 0, "first_byte_at": None, "last_byte_at": None,
                 "tcbs": [], "reset": False, "errors": []}
        done = Signal(engine)

        def arrived(data) -> bool:
            """Book delivered ``data``; True once the stream is whole."""
            if state["first_byte_at"] is None:
                state["first_byte_at"] = engine.now
            state["delivered"] += data
            state["segments"] += 1
            state["last_byte_at"] = engine.now
            return len(state["delivered"]) >= scale

        def watch(tcb) -> None:
            """Book ``tcb`` as an end of the stream, noting a reset."""
            state["tcbs"].append(tcb)
            notify = tcb.on_reset

            def on_reset():
                state["reset"] = True
                if notify is not None:
                    notify()
            tcb.on_reset = on_reset

        if bed.os_name == "spin":
            def on_accept(tcb):
                watch(tcb)
                tcb.on_close = tcb.close

                def on_data(data: bytes) -> None:
                    if arrived(data):
                        bed.hosts[receiver].defer(done.fire)
                tcb.on_data = on_data

            bed.stacks[receiver].tcp_manager.listen(
                Credential("sink"), port, on_accept)

            def pump(tcb) -> None:
                try:
                    while state["sent"] < scale and tcb.send_space > 0:
                        accepted = tcb.send(payload[state["sent"]:
                                                    state["sent"] + _CHUNK])
                        state["sent"] += accepted
                        if accepted == 0:
                            break
                    if close and state["sent"] == scale and not tcb.fin_queued:
                        tcb.close()
                except RuntimeError as exc:     # the connection died
                    state["errors"].append(str(exc))

            def connect():
                tcb = bed.stacks[sender].tcp_manager.connect(
                    Credential("source"), bed.ip(receiver), port)
                watch(tcb)
                tcb.on_established = lambda: pump(tcb)
                tcb.on_sendable = lambda space: pump(tcb)

            def main():
                if start_us:
                    yield engine.timeout(start_us)
                yield from bed.hosts[sender].kernel_path(connect)
                yield done.wait()
            return state, main

        # UNIX: both socket programs start here, ahead of whichever
        # runner starts the main process that waits for delivery.
        def server():
            listener = bed.sockets[receiver].tcp_socket()
            yield from listener.listen(port)
            conn = yield from listener.accept()
            watch(conn.tcb)
            while True:
                data = yield from conn.recv()
                if not data:
                    break
                if arrived(data):
                    done.fire()
            if close:
                yield from conn.close()

        def client():
            sock = bed.sockets[sender].tcp_socket()
            try:
                if start_us:
                    yield engine.timeout(start_us)
                yield from sock.connect((bed.ip(receiver), port))
                watch(sock.tcb)
                while state["sent"] < scale:
                    data = payload[state["sent"]:state["sent"] + _CHUNK]
                    yield from sock.send(data)
                    state["sent"] += len(data)
                if close:
                    yield from sock.close()
            except (RuntimeError, SocketError) as exc:  # reset under a call
                state["errors"].append(str(exc))

        engine.process(server(), name="tcp-stream-server")
        engine.process(client(), name="tcp-stream-client")

        def main():
            yield done.wait()
        return state, main

    return setup


def _tcp_stream_fingerprint(state, bed) -> Dict:
    got = len(state["delivered"])
    _verify(state, None if state["delivered"] == state["payload"] else
            "%d of %d bytes delivered, not byte-exact"
            % (got, len(state["payload"])))
    elapsed = state["last_byte_at"] - (state["first_byte_at"] or 0.0)
    mbps = (got * 8.0 / elapsed * MICROSECONDS_PER_SECOND / 1e6
            if elapsed > 0 else 0.0)
    return {"bytes": got, "segments": state["segments"], "mbps": mbps,
            "final_now_us": bed.engine.now}


# ---------------------------------------------------------------------------
# the serial TCP object server (latency legs and probes)
# ---------------------------------------------------------------------------

_OBJECT_PORT = 8090
_OBJECT = _seeded_bytes(_SEED, 2048)

#: bursty (Gilbert-Elliott) loss for the impaired probe; seed fixed so
#: the stall decomposition is replayable.
_IMPAIRMENT = ImpairmentConfig(loss_good=0.02, loss_bad=0.4,
                               p_good_bad=0.08, p_bad_good=0.3)
_IMPAIRED_SEED = 0x51CA


def _tcp_objects(kind: str, plan_of: Callable, closed: bool = True,
                 until: Optional[float] = None, impaired: bool = False):
    """One connect/fetch/close per request against a daemon that serves
    one connection at a time -- the serial service discipline is what
    turns an offered-load burst into a visible tail.  ``closed`` fetches
    sequentially; open-loop spawns each fetch at its drawn departure.
    Every fetch must read the seeded object byte-exact."""
    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        client_sockets, server_sockets = bed.sockets
        server_ip = bed.ip(1)
        if impaired:
            for medium in bed.media():
                medium.set_impairments(_IMPAIRMENT, seed=_IMPAIRED_SEED)
        plan = plan_of(scale)
        state = {"fetches": scale, "done": 0, "bytes_in": 0, "errors": [],
                 "until": _horizon(plan, closed, until)}

        def server():
            listener = server_sockets.tcp_socket()
            yield from listener.listen(_OBJECT_PORT, backlog=scale)
            while True:
                child = yield from listener.accept()
                yield from child.send(_OBJECT)
                yield from child.close()

        def fetch(seq: int):
            request = _begin(lifecycle, kind, seq)
            sock = client_sockets.tcp_socket()
            yield from sock.connect((server_ip, _OBJECT_PORT))
            body = bytearray()
            while True:
                data = yield from sock.recv()
                if not data:
                    break
                body += data
                state["bytes_in"] += len(data)
            if body != _OBJECT:
                state["errors"].append("fetch %d read %d bytes, not the "
                                       "object" % (seq, len(body)))
            yield from sock.close()
            _end(lifecycle, request)
            state["done"] += 1

        def main():
            for seq, (gap_us, _size) in enumerate(plan):
                yield engine.timeout(gap_us)
                if closed:
                    yield from fetch(seq)
                else:
                    _spawn(state, engine, fetch(seq), "fetch-%d" % seq)

        # Started here, ahead of whichever runner starts main().
        engine.process(server(), name="object-server")
        return state, main

    return setup


def _tcp_objects_fingerprint(state, bed) -> Dict:
    _verify(state)
    return {"fetches": state["fetches"], "done": state["done"],
            "bytes_in": state["bytes_in"], "final_now_us": bed.engine.now}


def _tcp_objects_record(name: str, scale: int, **scenario) -> Workload:
    return Workload(
        name=name, build=_pair("unix", "atm"), setup=_tcp_objects(**scenario),
        fingerprint=_tcp_objects_fingerprint,
        scale=scale, kinds=(scenario["kind"],))


# ---------------------------------------------------------------------------
# many_flows: one Poller-multiplexed origin, many clients
# ---------------------------------------------------------------------------

_FLOWS_TCP_PORT, _FLOWS_UDP_PORT = 80, 5004
_UDP_REQUEST = _seeded_bytes(_SEED, 16)   # a "frame please" datagram


def _flows(tcp_object: int, udp_reply: int, stagger_us: float,
           is_tcp: Callable, kinds):
    """``scale`` client flows from host 0 against a UNIX-model server on
    host 1.

    The server plays a small HTTP/video origin on a 155 Mb/s ATM bed: a
    TCP listener that pushes a ``tcp_object``-byte page at every accepted
    connection, and a UDP port that answers every datagram with
    ``udp_reply`` bytes, everything multiplexed through one
    :class:`~repro.unixos.sockets.Poller` in kqueue style.  Flow
    ``index`` opens at ``index * stagger_us`` and is TCP where
    ``is_tcp(index, scale)``.  Clients send no TCP request bytes:
    connecting *is* the request.  Every client must read its seeded page
    or reply byte-exact.
    """
    page = _seeded_bytes(_SEED + 1, tcp_object)
    reply = _seeded_bytes(_SEED + 2, udp_reply)

    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        client_sockets, server_sockets = bed.sockets
        server_host, server_ip = bed.hosts[1], bed.ip(1)
        state = {"flows": scale, "tcp_done": 0, "udp_done": 0, "bytes_in": 0,
                 "served": 0, "peak_conns": 0, "peak_watched": 0,
                 "errors": []}
        server_ready = Signal(engine)
        all_done = Signal(engine)

        def finished(done_key: str, received, expected, request) -> None:
            if received != expected:
                state["errors"].append("a flow read %r" % bytes(received))
            _end(lifecycle, request)
            state[done_key] += 1
            state["bytes_in"] += len(received)
            if state["tcp_done"] + state["udp_done"] == scale:
                all_done.fire()

        def tcp_client(index: int):
            yield engine.timeout(index * stagger_us)
            request = _begin(lifecycle, kinds[1])
            sock = client_sockets.tcp_socket()
            yield from sock.connect((server_ip, _FLOWS_TCP_PORT))
            received = bytearray()
            while True:
                data = yield from sock.recv()
                if not data:
                    break
                received += data
            yield from sock.close()
            finished("tcp_done", received, page, request)

        def udp_client(index: int):
            yield engine.timeout(index * stagger_us)
            request = _begin(lifecycle, kinds[0])
            sock = client_sockets.udp_socket()
            yield from sock.bind()
            yield from sock.sendto(_UDP_REQUEST, (server_ip, _FLOWS_UDP_PORT))
            data, _addr = yield from sock.recvfrom()
            sock.close()
            finished("udp_done", data, reply, request)

        def server():
            listener = server_sockets.tcp_socket()
            yield from listener.listen(_FLOWS_TCP_PORT, backlog=scale)
            udp = server_sockets.udp_socket()
            yield from udp.bind(_FLOWS_UDP_PORT)
            poller = Poller(server_host)
            poller.register(listener)
            poller.register(udp)
            server_ready.fire()
            connections = server_sockets.stack.tcp.connections
            while state["served"] < scale:
                ready = yield from poller.wait()
                state["peak_conns"] = max(state["peak_conns"],
                                          len(connections))
                state["peak_watched"] = max(state["peak_watched"],
                                            len(poller._watched))
                for sock in ready:
                    if sock is listener:
                        while sock.accept_queue:
                            child = yield from listener.accept()
                            yield from child.send(page)
                            yield from child.close()
                            state["served"] += 1
                            # Keep watching until the peer's FIN lands, so
                            # the poller tracks every in-flight connection.
                            poller.register(child)
                    elif sock is udp:
                        while sock.buffer.items:
                            _data, addr = yield from udp.recvfrom()
                            yield from udp.sendto(reply, addr)
                            state["served"] += 1
                    else:  # a pushed child reached EOF: reap it
                        poller.unregister(sock)

        def main():
            _spawn(state, engine, server(), "flows-server")
            yield server_ready.wait()
            for index in range(scale):
                client = tcp_client if is_tcp(index, scale) else udp_client
                _spawn(state, engine, client(index), "flow-%d" % index)
            yield all_done.wait()

        return state, main

    return setup


def _flows_fingerprint(state, bed) -> Dict:
    _verify(state)
    fingerprint = {key: state[key] for key in (
        "flows", "tcp_done", "udp_done", "bytes_in", "peak_conns",
        "peak_watched")}
    fingerprint["final_now_us"] = bed.engine.now
    return fingerprint


def _flows_record(name: str, scale: int, **scenario) -> Workload:
    return Workload(
        name=name, build=_pair("unix", "atm"), setup=_flows(**scenario),
        fingerprint=_flows_fingerprint, scale=scale, kinds=scenario["kinds"])


# ---------------------------------------------------------------------------
# fabric_fat_tree: open-loop UDP across a k=4 fat-tree
# ---------------------------------------------------------------------------

_FABRIC_K = 4
_FABRIC_RX_PORT = 9000
_FABRIC_TX_PORT = 9001


def _fabric_setup(bed, scale: int, lifecycle=None):
    """8 spin hosts on 20 programmed match-action switches.

    Every edge host streams ``scale`` UDP datagrams to its image in the
    pod ``k/2`` away -- the same (edge, slot), pod ``(p + k/2) % k`` --
    so every flow crosses the core tier.  Departures follow a per-host
    :class:`~repro.fabric.traffic.OpenLoopSource` (even global host ids
    Poisson, odd Pareto; seeds derived from the host id), so the traffic
    matrix is a pure function of (k, hosts_per_edge, scale).

    With ``lifecycle`` each datagram becomes one request, begun at its
    open-loop departure and ended when the far edge delivers it.
    Matching an end to its begin needs a (sender, sequence) tag on the
    wire, so the payload prefix widens from 4 to 8 bytes in that mode --
    the latency leg carries its own fingerprint and never shares one
    with the plain workload, which keeps the 4-byte format bit-for-bit.
    Seeded bytes follow the prefix, and must arrive byte-exact.
    """
    engine = bed.engine
    k = bed.fat_tree_k
    half = k // 2
    hpe = bed.hosts_per_edge

    # Open-loop UDP carries no retransmit: a dropped frame parks its
    # receiver short of the expected count forever.  Host rings see at
    # most ``scale`` frames each way; a core-tier port aggregates every
    # host of one pod, so provision for the pod's worth.
    for nic in bed.nics:
        nic.provision_rings(max(256, scale * half * hpe))

    state = {"sent": 0, "received": 0, "bytes": 0, "errors": []}
    expected = scale * len(bed.host_locator)
    all_done = Signal(engine)
    pending = {}            # (gid, seq) -> open Request, lifecycle mode only
    body = _seeded_bytes(_SEED, 1400)

    @ephemeral
    def delivered(data, prefix: int) -> None:
        if data[prefix:] != body[:len(data) - prefix]:
            state["errors"].append("a datagram arrived garbled")
        state["received"] += 1
        state["bytes"] += len(data)
        if state["received"] == expected:
            all_done.fire()

    if lifecycle is None:
        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            delivered(bytes(m.to_bytes()[off:]), 4)
    else:
        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            data = bytes(m.to_bytes()[off:])
            request = pending.pop((_seq(data), _seq(data[4:])), None)
            if request is not None:
                lifecycle.end(request)
            delivered(data, 8)

    senders = []
    for index, (p, e, s) in enumerate(bed.host_locator):
        stack = bed.stacks[index]
        stack.udp_manager.bind(Credential("fabric-rx-%d-%d-%d" % (p, e, s)),
                               _FABRIC_RX_PORT, receive)
        endpoint = stack.udp_manager.bind(
            Credential("fabric-tx-%d-%d-%d" % (p, e, s)), _FABRIC_TX_PORT,
            receive)
        gid = (p * half + e) * hpe + s
        source = OpenLoopSource(
            seed=0xFAB0 + gid,
            arrival="poisson" if gid % 2 == 0 else "pareto",
            mean_gap_us=40.0,
            size_dist="fixed" if gid % 2 == 0 else "pareto",
            fixed_size=256, min_size=32, max_size=1400)
        dst_ip = ip_aton("10.%d.%d.%d" % ((p + half) % k, e, s + 2))
        senders.append((index, gid, endpoint, dst_ip, source.schedule(scale)))

    def sender_loop(index, gid, endpoint, dst_ip, plan):
        host = bed.hosts[index]
        for seq, (gap_us, size) in enumerate(plan):
            yield engine.timeout(gap_us)
            if lifecycle is None:
                payload = seq.to_bytes(4, "big") + body[:size - 4]
            else:
                payload = (gid.to_bytes(4, "big") + seq.to_bytes(4, "big")
                           + body[:size - 8])
                pending[(gid, seq)] = lifecycle.begin("fabric_dgram")
            yield from host.kernel_path(
                lambda data=payload: endpoint.send(data, dst_ip,
                                                   _FABRIC_RX_PORT))
            state["sent"] += 1

    def main():
        for index, gid, endpoint, dst_ip, plan in senders:
            _spawn(state, engine, sender_loop(index, gid, endpoint, dst_ip, plan),
                   "fabric-src-%d" % index)
        yield all_done.wait()

    return state, main


def _fabric_fingerprint(state, bed) -> Dict:
    """Folds in per-switch forwarding totals, so a single misrouted or
    double-counted frame anywhere in the fabric fails the gate."""
    _verify(state)
    fingerprint = {key: state[key] for key in ("sent", "received", "bytes")}
    fingerprint.update(final_now_us=bed.engine.now, switch_forwarded=0,
                       switch_dropped=0, ecmp=0)
    for switch in bed.switches:
        fingerprint["switch_forwarded"] += switch.pipeline_forwarded
        fingerprint["switch_dropped"] += switch.pipeline_dropped
        fingerprint["ecmp"] += switch.ecmp_decisions
    return fingerprint


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: Figure 5's ping-pong, as ``_udp_echo`` scenario data: the registry's
#: ``udp_pingpong`` and :func:`repro.bench.latency.measure_plexus_udp_rtt`
#: are both this.
PINGPONG = {"ports": (7002, 7001), "creds": ("pong", "ping"),
            "kind": "udp_pingpong"}
_ECHO_PORTS = (7007, 7008)
_PROBE_HORIZON_US = 60_000_000.0

_RECORDS = [
    _udp_echo_record("udp_pingpong", 60, **PINGPONG, payload=8),
    Workload(
        name="tcp_bulk", build=_pair("spin", "atm"), setup=_tcp_stream(),
        fingerprint=_tcp_stream_fingerprint, scale=100_000),
    # Half TCP, half UDP at a 15 us stagger: thousands of connections in
    # flight at once stress the kernel timers (per-connection retransmit /
    # delayed-ack / TIME_WAIT timers) and the O(1) port allocators.
    _flows_record("many_flows", 2_000, tcp_object=512, udp_reply=128,
                  stagger_us=15.0,
                  is_tcp=lambda index, scale: index < scale // 2,
                  kinds=("many_udp", "many_tcp")),
    # ``scale`` is datagrams per host.
    Workload(
        name="fabric_fat_tree", build=functools.partial(fat_tree, _FABRIC_K),
        setup=_fabric_setup, fingerprint=_fabric_fingerprint, scale=20,
        kinds=("fabric_dgram",)),
    # Closed-loop decomposition probes (repro.bench.slo attaches an
    # SloTracker): Figure 5's ping-pong, and sequential object fetches
    # over a clean and a bursty-loss wire, bounded so a lost handshake
    # can never hang the harness.
    _udp_echo_record("udp_clean", 10, ports=_ECHO_PORTS,
                     creds=("probe-pong", "probe-ping"), kind="udp_probe",
                     payload=64),
]
for _name, _impaired in (("tcp_clean", False), ("tcp_impaired", True)):
    _RECORDS.append(_tcp_objects_record(
        _name, 10, kind="tcp_probe", impaired=_impaired,
        plan_of=lambda n: [(1000.0, 0)] * n, until=_PROBE_HORIZON_US))
# Latency legs, each an open-loop record plus its "/closed" twin replaying
# the same arrival draws.  The mean inter-departure gap (us) is the
# offered load: the spin/ethernet echo RTT is ~570 us, so the 400 us leg
# genuinely overlaps requests; the tcp legs sit against a ~1.5 ms serial
# service.
for _gap in (2000, 800, 400):
    for _suffix, _closed in (("", False), ("/closed", True)):
        _leg = "udp_echo@g%d" % _gap
        _RECORDS.append(_udp_echo_record(
            _leg + _suffix, 150, ports=_ECHO_PORTS,
            creds=("slo-echo", "slo-client"), kind="udp_echo",
            plan_of=lambda n, leg=_leg: schedule(leg, n), closed=_closed))
for _gap in (5000, 2000):
    for _suffix, _closed in (("", False), ("/closed", True)):
        _leg = "tcp_objects@g%d" % _gap
        _RECORDS.append(_tcp_objects_record(
            _leg + _suffix, 60, kind="tcp_object", closed=_closed,
            plan_of=lambda n, leg=_leg: schedule(leg, n)))

#: name -> record, in registration order.
WORKLOADS: Dict[str, Workload] = {record.name: record for record in _RECORDS}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run_once(record: Workload, scale: int, instrument=None) -> Dict:
    """Run ``record`` on a single engine: build -> instrument -> setup ->
    run -> record.

    ``instrument`` is called with the freshly built bed before the
    scenario is wired -- the hook ``repro.obs`` uses to attach profilers
    and tracers -- and may return a
    :class:`~repro.obs.slo.RequestLifecycle` for the scenario to report
    its requests to.  Neither may perturb simulated time.  The metrics
    snapshot is taken after the run: every run builds a fresh bed whose
    counters start at zero, so the snapshot *is* the run's registry
    delta.
    """
    bed = record.build()
    lifecycle = instrument(bed) if instrument is not None else None
    state, main = record.setup(bed, scale, lifecycle)
    engine = bed.engine
    until = state.get("until")
    with _children_surfaced(state):
        if until is None:
            engine.run_process(main(), name=record.name)
        else:
            process = engine.process(main(), name=record.name)
            engine.run(until=until)
            # Still pending at the horizon is legal -- that is what the
            # horizon is for -- but a scenario that raised must not
            # report a normal-looking record.
            if process.triggered:
                process.value
    fingerprint = record.fingerprint(state, bed)
    return {
        "events": engine.events_processed,
        "metrics": instrument_testbed(bed).snapshot(),
        "fingerprint": fingerprint,
    }


def run_workload(name: str, instrument=None) -> Dict:
    """Run a registered workload once at its scale."""
    record = WORKLOADS[name]
    result = run_once(record, record.scale, instrument)
    result.update(name=name, scale=record.scale)
    return result
