"""The workload registry and its one runner.

Every scenario the harness can drive -- Figure 5's ping-pong and section
4.2's bulk transfer, the sharded flow workloads, the fabric, the latency
suite's open/closed legs and its decomposition probes -- is one
declarative :class:`Workload` record in
:data:`WORKLOADS`: how to build the bed, how to wire the scenario onto it
(``setup(bed, scale, lifecycle=None) -> (state, main)``), what its
simulated-time fingerprint is, its scales, and -- for the shardable ones
-- how scale splits across shards.  Ports, payload sizes,
staggers and reply disciplines are data on the record, so a scenario
family (the spin/ethernet UDP echo pair, the serial TCP object server,
the many-flows origin) is written once and registered several times.

Two functions run records: :func:`run_once` (build -> instrument ->
setup -> GC-quiesce -> time -> record, on a single engine) and
:func:`run_partitioned` (the same record as N shards, each a task of the
suite's one process pool, :func:`repro.bench.runner.map_tasks`).
``--latency``, ``--parallel-curve`` and ``python -m repro.obs
--workload`` go through them; Figure 5 and section 4.2
(:mod:`repro.bench.latency`, :mod:`repro.bench.throughput`) wire the
same ``setup`` functions onto beds of their own.

Each result carries a **fingerprint** of simulated-time outputs, the
only thing the gate judges: any substrate change must leave every field
*bit-identical*, because the simulation is deterministic and wall-clock
work must never leak into simulated time.  The host-side fields beside
it (``wall_s``, ``events_per_sec``, ``packets_per_sec``) are unjudged;
``perfbench/`` is where host speed and footprint are measured.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time
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
from ..obs.registry import merge_snapshots
from ..obs.wire import instrument_testbed
from ..sim import Engine, Signal, SimulationError
from ..unixos.sockets import Poller
from .runner import map_tasks
from .testbed import build_testbed

__all__ = ["Workload", "WORKLOADS", "PINGPONG", "MODES", "env_override",
           "schedule", "run_once", "run_partitioned", "run_workload"]


@dataclass(frozen=True)
class Workload:
    """One registered scenario.  Scales are part of the fingerprint
    contract: changing them changes the expected fingerprints."""

    name: str
    #: ``build(scale, engine=None) -> bed``
    build: Callable
    #: ``setup(bed, scale, lifecycle=None) -> (state, main)``: the mutable
    #: counters and a zero-argument callable producing the main generator.
    #: ``state["until"]``, when set, bounds the run in simulated us (a
    #: lost frame then leaves a request open instead of hanging).
    setup: Callable
    #: ``fingerprint(state, bed) -> dict`` of simulated-time outputs
    fingerprint: Callable
    #: ``packets(state) -> int`` frames the scenario moved
    packets: Callable
    quick: int
    full: int
    #: the discarded warm-up pass heats imports, codegen and allocator
    #: pools; it need not pay for a huge quick scale twice
    warmup: int
    #: request kinds a :class:`~repro.obs.slo.RequestLifecycle` sees
    kinds: Tuple[str, ...] = ()
    #: shardable records only: ``split(scale, n_partitions, index)`` is a
    #: shard's scale
    split: Optional[Callable] = None

    def scale(self, quick: bool) -> int:
        return self.quick if quick else self.full


# ---------------------------------------------------------------------------
# scenario building blocks
# ---------------------------------------------------------------------------

def _pair(os_name: str, device: str, hosts: Callable = lambda scale: 2):
    """Bed builder: ``hosts(scale)`` machines of one OS on one medium."""
    def build(scale, engine=None):
        return build_testbed(os_name, device, n_hosts=hosts(scale),
                             deliver_mode="interrupt", engine=engine)
    return build


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


# ---------------------------------------------------------------------------
# the spin/ethernet UDP echo pair (Figure 5's inner loop)
# ---------------------------------------------------------------------------

def _udp_echo(ports, creds, kind: str, payload: int = 0,
              paced: Optional[str] = None, closed: bool = True,
              mode: str = "inline", checksum: bool = True):
    """UDP ping-pong between two in-kernel Plexus extensions, whose
    handlers are bound in ``mode`` with the UDP ``checksum`` on or off.

    Unpaced, ``scale`` back-to-back round trips of ``payload`` zero bytes.
    ``paced`` names the latency leg whose :func:`schedule` sets each
    datagram's departure gap and size; those carry their sequence number
    so the client handler can end the matching request however many are
    in flight, and ``closed=False`` keeps the drawn schedule regardless
    of replies (open loop) where the closed twin waits for each one.
    """
    server_port, client_port = ports

    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        client_stack, server_stack = bed.stacks
        client_host = bed.hosts[0]
        plan = schedule(paced, scale) if paced else [(None, payload)] * scale
        state = {"trips": scale, "samples": [],
                 "until": _horizon(plan, closed, None) if paced else None}
        if paced:
            # Open-loop UDP has no retransmit: a ring drop parks its
            # request forever and, worse, nondeterministically under
            # load.  Provision for the whole schedule.
            for nic in bed.nics:
                nic.provision_rings(max(256, scale))
        pending: Dict[int, object] = {}
        reply_seen = Signal(engine)
        server_ep = None

        @ephemeral
        def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            data = bytes(m.to_bytes()[off:])
            server_ep.send(data, src_ip, src_port)

        if paced:
            @ephemeral
            def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
                data = bytes(m.to_bytes()[off:])
                # int.from_bytes is not on the ephemeral safe list.
                seq = ((data[0] << 24) | (data[1] << 16) | (data[2] << 8)
                       | data[3])
                request = pending.pop(seq, None)
                if request is not None:
                    lifecycle.end(request)
                reply_seen.fire()
        else:
            @ephemeral
            def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
                client_host.defer(reply_seen.fire)

        server_ep = server_stack.udp_manager.bind(
            Credential(creds[0]), server_port, server_handler, mode=mode,
            checksum=checksum)
        client_ep = client_stack.udp_manager.bind(
            Credential(creds[1]), client_port, client_handler, mode=mode,
            checksum=checksum)

        def main():
            for seq, (gap_us, size) in enumerate(plan):
                if paced:
                    yield engine.timeout(gap_us)
                    data = seq.to_bytes(4, "big") + bytes(size - 4)
                    request = pending[seq] = _begin(lifecycle, kind, seq)
                else:
                    data = bytes(size)
                    request = _begin(lifecycle, kind)
                start = engine.now
                waiter = reply_seen.wait() if closed else None
                yield from client_host.kernel_path(
                    lambda data=data: client_ep.send(data, bed.ip(1),
                                                     server_port))
                if closed:
                    yield waiter
                    state["samples"].append(engine.now - start)
                    if not paced:
                        _end(lifecycle, request)

        return state, main

    return setup


def _udp_echo_fingerprint(state, bed) -> Dict:
    samples = state["samples"]
    return {
        "trips": state["trips"],
        "mean_rtt_us": sum(samples) / len(samples) if samples else None,
        "final_now_us": bed.engine.now,
    }


def _udp_echo_record(name: str, scales, **scenario) -> Workload:
    quick, full, warmup = scales
    return Workload(
        name=name, build=_pair("spin", "ethernet"),
        setup=_udp_echo(**scenario), fingerprint=_udp_echo_fingerprint,
        # one request + one reply per trip
        packets=lambda state: 2 * state["trips"],
        quick=quick, full=full, warmup=warmup, kinds=(scenario["kind"],))


# ---------------------------------------------------------------------------
# tcp_bulk (section 4.2's inner loop)
# ---------------------------------------------------------------------------

def _tcp_bulk_setup(bed, scale: int, lifecycle=None):
    """Bulk TCP of ``scale`` bytes over ATM: checksum- and
    segmentation-heavy."""
    engine = bed.engine
    sender_stack, receiver_stack = bed.stacks
    sender_host, receiver_host = bed.hosts
    state = {"received": 0, "segments": 0, "first_byte_at": None,
             "last_byte_at": None, "sent": 0}
    done = Signal(engine)

    def on_accept(tcb):
        def on_data(data: bytes) -> None:
            if state["first_byte_at"] is None:
                state["first_byte_at"] = engine.now
            state["received"] += len(data)
            state["segments"] += 1
            state["last_byte_at"] = engine.now
            if state["received"] >= scale:
                receiver_host.defer(done.fire)
        tcb.on_data = on_data

    receiver_stack.tcp_manager.listen(Credential("sink"), 9000, on_accept)
    chunk = bytes(32 * 1024)

    def pump(tcb) -> None:
        while state["sent"] < scale and tcb.send_space > 0:
            take = min(len(chunk), scale - state["sent"])
            accepted = tcb.send(chunk[:take])
            state["sent"] += accepted
            if accepted == 0:
                break

    def main():
        def work():
            tcb = sender_stack.tcp_manager.connect(
                Credential("source"), bed.ip(1), 9000)
            tcb.on_established = lambda: pump(tcb)
            tcb.on_sendable = lambda space: pump(tcb)
        yield from sender_host.kernel_path(work)
        yield done.wait()

    return state, main


def _tcp_bulk_fingerprint(state, bed) -> Dict:
    elapsed = state["last_byte_at"] - (state["first_byte_at"] or 0.0)
    mbps = (state["received"] * 8.0 / elapsed * MICROSECONDS_PER_SECOND / 1e6
            if elapsed > 0 else 0.0)
    return {
        "bytes": state["received"],
        "segments": state["segments"],
        "mbps": mbps,
        "final_now_us": bed.engine.now,
    }


# ---------------------------------------------------------------------------
# the serial TCP object server (latency legs and probes)
# ---------------------------------------------------------------------------

_OBJECT_PORT = 8090
_OBJECT = bytes(2048)

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
    sequentially; open-loop spawns each fetch at its drawn departure."""
    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        client_sockets, server_sockets = bed.sockets
        server_ip = bed.ip(1)
        if impaired:
            for medium in bed.media():
                medium.set_impairments(_IMPAIRMENT, seed=_IMPAIRED_SEED)
        plan = plan_of(scale)
        state = {"fetches": scale, "done": 0, "bytes_in": 0,
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
            while True:
                data = yield from sock.recv()
                if not data:
                    break
                state["bytes_in"] += len(data)
            yield from sock.close()
            _end(lifecycle, request)
            state["done"] += 1

        def main():
            for seq, (gap_us, _size) in enumerate(plan):
                yield engine.timeout(gap_us)
                if closed:
                    yield from fetch(seq)
                else:
                    engine.process(fetch(seq), name="fetch-%d" % seq)

        # Started here, ahead of whichever runner starts main().
        engine.process(server(), name="object-server")
        return state, main

    return setup


def _tcp_objects_record(name: str, scales, **scenario) -> Workload:
    quick, full, warmup = scales
    return Workload(
        name=name, build=_pair("unix", "atm"), setup=_tcp_objects(**scenario),
        fingerprint=lambda state, bed: {
            "fetches": state["fetches"], "done": state["done"],
            "bytes_in": state["bytes_in"], "final_now_us": bed.engine.now},
        packets=lambda state: 2 * state["done"],
        quick=quick, full=full, warmup=warmup, kinds=(scenario["kind"],))


# ---------------------------------------------------------------------------
# many_flows / mega_flows: one Poller-multiplexed origin, many clients
# ---------------------------------------------------------------------------

_FLOWS_TCP_PORT, _FLOWS_UDP_PORT = 80, 5004
_UDP_REQUEST = bytes(16)        # a "frame please" control datagram

#: Flows one client host can source: the ephemeral UDP port range is
#: 32768..65535 (~32767 ports), kept under ~30k for slack against the
#: TCP side's separate allocator and retries.
_FLOWS_PER_HOST = 30_000


def _flows(tcp_object: int, udp_reply: int, stagger_us: float,
           is_tcp: Callable, deferred: bool, kinds):
    """``scale`` client flows against one UNIX-model server.

    The server plays a small HTTP/video origin on a 155 Mb/s ATM bed: a
    TCP listener that pushes a ``tcp_object``-byte page at every accepted
    connection, and a UDP port that answers every datagram with
    ``udp_reply`` bytes, everything multiplexed through one
    :class:`~repro.unixos.sockets.Poller` in kqueue style.  Flow
    ``index`` opens at ``index * stagger_us`` from the client host whose
    contiguous block it falls in (the last host is the server) and is TCP
    where ``is_tcp(index, scale)``.  Clients send no TCP request bytes: a
    segment arriving before the server accepts would be consumed by the
    kernel TCB with no reader attached, so connecting *is* the request.

    A ``deferred`` server withholds every reply until all ``scale`` flows
    have arrived, so peak live-flow concurrency equals ``scale`` by
    construction, and every request's latency is a queue measurement.
    """
    page, reply = bytes(tcp_object), bytes(udp_reply)

    def setup(bed, scale: int, lifecycle=None):
        engine = bed.engine
        n_clients = len(bed.hosts) - 1
        server_host, server_sockets = bed.hosts[-1], bed.sockets[-1]
        server_ip = bed.ip(n_clients)
        if deferred:
            # Both phases are wire-rate bursts -- the open-loop request
            # front inbound, the deferred reply sweep outbound.  The
            # default 64-entry rings drop under either, and a dropped
            # datagram deadlocks its client (UDP carries no retransmit).
            for nic in bed.nics:
                nic.provision_rings(scale)
        state = {"flows": scale, "tcp_done": 0, "udp_done": 0, "bytes_in": 0,
                 "served": 0, "peak_conns": 0, "peak_watched": 0}
        server_ready = Signal(engine)
        all_done = Signal(engine)

        def finished(done_key: str, received: int, request) -> None:
            _end(lifecycle, request)
            state[done_key] += 1
            state["bytes_in"] += received
            if state["tcp_done"] + state["udp_done"] == scale:
                all_done.fire()

        def tcp_client(index: int, sockets):
            yield engine.timeout(index * stagger_us)
            request = _begin(lifecycle, kinds[1])
            sock = sockets.tcp_socket()
            yield from sock.connect((server_ip, _FLOWS_TCP_PORT))
            received = 0
            while True:
                data = yield from sock.recv()
                if not data:
                    break
                received += len(data)
            yield from sock.close()
            finished("tcp_done", received, request)

        def udp_client(index: int, sockets):
            yield engine.timeout(index * stagger_us)
            request = _begin(lifecycle, kinds[0])
            sock = sockets.udp_socket()
            yield from sock.bind()
            yield from sock.sendto(_UDP_REQUEST, (server_ip, _FLOWS_UDP_PORT))
            data, _addr = yield from sock.recvfrom()
            sock.close()
            finished("udp_done", len(data), request)

        def server():
            listener = server_sockets.tcp_socket()
            yield from listener.listen(_FLOWS_TCP_PORT, backlog=scale)
            udp = server_sockets.udp_socket()
            yield from udp.bind(_FLOWS_UDP_PORT)
            if deferred:
                # Requests land faster than the loop drains; the default
                # 64 KB socket buffer would silently drop datagrams.
                udp.buffer.limit = max(udp.buffer.limit, scale * 64)
            poller = Poller(server_host)
            poller.register(listener)
            poller.register(udp)
            server_ready.fire()
            connections = server_sockets.stack.tcp.connections
            held_tcp, held_udp = [], []     # deferred: awaiting their reply

            def push(child):
                yield from child.send(page)
                yield from child.close()
                state["served"] += 1

            def answer(addr):
                yield from udp.sendto(reply, addr)
                state["served"] += 1

            while (len(held_tcp) + len(held_udp) if deferred
                   else state["served"]) < scale:
                ready = yield from poller.wait()
                state["peak_conns"] = max(state["peak_conns"],
                                          len(connections))
                state["peak_watched"] = max(state["peak_watched"],
                                            len(poller._watched))
                for sock in ready:
                    if sock is listener:
                        while sock.accept_queue:
                            child = yield from listener.accept()
                            if deferred:
                                held_tcp.append(child)
                            else:
                                yield from push(child)
                                # Keep watching until the peer's FIN
                                # lands, so the poller tracks every
                                # in-flight connection.
                                poller.register(child)
                    elif sock is udp:
                        while sock.buffer.items:
                            _data, addr = yield from udp.recvfrom()
                            if deferred:
                                held_udp.append(addr)
                            else:
                                yield from answer(addr)
                    else:  # a pushed child reached EOF: reap it
                        poller.unregister(sock)
            if deferred:
                # Every flow is now live at once -- the measured peak.
                # Answer them all (arrival order: deterministic).
                state["peak_conns"] = max(state["peak_conns"],
                                          len(connections))
                for child in held_tcp:
                    yield from push(child)
                for addr in held_udp:
                    yield from answer(addr)

        def main():
            engine.process(server(), name="flows-server")
            yield server_ready.wait()
            for index in range(scale):
                sockets = bed.sockets[index * n_clients // scale]
                client = tcp_client if is_tcp(index, scale) else udp_client
                engine.process(client(index, sockets), name="flow-%d" % index)
            yield all_done.wait()

        return state, main

    return setup


def _flows_fingerprint(state, bed) -> Dict:
    fingerprint = {key: state[key] for key in (
        "flows", "tcp_done", "udp_done", "bytes_in", "peak_conns",
        "peak_watched")}
    fingerprint["final_now_us"] = bed.engine.now
    return fingerprint


def _split_flows(scale: int, n_partitions: int, index: int) -> int:
    """Partition ``index``'s slice of ``scale`` flows (remainder goes low)."""
    base, extra = divmod(scale, n_partitions)
    return base + (1 if index < extra else 0)


def _flows_record(name: str, scales, hosts: Callable = lambda scale: 2,
                  **scenario) -> Workload:
    quick, full, warmup = scales
    return Workload(
        name=name, build=_pair("unix", "atm", hosts), setup=_flows(**scenario),
        fingerprint=_flows_fingerprint,
        # at least one frame each way per flow
        packets=lambda state: state["served"] * 2,
        quick=quick, full=full, warmup=warmup, kinds=scenario["kinds"],
        split=_split_flows)


# ---------------------------------------------------------------------------
# fabric_fat_tree: open-loop UDP across a k=4 fat-tree
# ---------------------------------------------------------------------------

_FABRIC_K = 4
_FABRIC_RX_PORT = 9000
_FABRIC_TX_PORT = 9001


def _fat_tree_bed(scale, engine=None):
    return fat_tree(_FABRIC_K, engine=engine)


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

    state = {"sent": 0, "received": 0, "bytes": 0}
    expected = scale * len(bed.host_locator)
    all_done = Signal(engine)
    pending = {}            # (gid, seq) -> open Request, lifecycle mode only

    if lifecycle is None:
        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            state["received"] += 1
            state["bytes"] += len(m.to_bytes()) - off
            if state["received"] == expected:
                all_done.fire()
    else:
        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            data = bytes(m.to_bytes()[off:])
            state["received"] += 1
            state["bytes"] += len(data)
            # int.from_bytes is not on the ephemeral safe list; shift
            # arithmetic on indexed bytes says the same thing.
            key = ((data[0] << 24) | (data[1] << 16) | (data[2] << 8) | data[3],
                   (data[4] << 24) | (data[5] << 16) | (data[6] << 8) | data[7])
            request = pending.pop(key, None)
            if request is not None:
                lifecycle.end(request)
            if state["received"] == expected:
                all_done.fire()

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
                payload = seq.to_bytes(4, "big") + bytes(size - 4)
            else:
                payload = (gid.to_bytes(4, "big") + seq.to_bytes(4, "big")
                           + bytes(size - 8))
                pending[(gid, seq)] = lifecycle.begin("fabric_dgram")
            yield from host.kernel_path(
                lambda data=payload: endpoint.send(data, dst_ip,
                                                   _FABRIC_RX_PORT))
            state["sent"] += 1

    def main():
        for index, gid, endpoint, dst_ip, plan in senders:
            engine.process(sender_loop(index, gid, endpoint, dst_ip, plan),
                           name="fabric-src-%d" % index)
        yield all_done.wait()

    return state, main


def _fabric_fingerprint(state, bed) -> Dict:
    """Folds in per-switch forwarding totals, so a single misrouted or
    double-counted frame anywhere in the fabric fails the gate."""
    fingerprint = dict(state, final_now_us=bed.engine.now, switch_forwarded=0,
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
    _udp_echo_record("udp_pingpong", (60, 400, 60), **PINGPONG, payload=8),
    Workload(
        name="tcp_bulk", build=_pair("spin", "atm"), setup=_tcp_bulk_setup,
        fingerprint=_tcp_bulk_fingerprint,
        packets=lambda state: state["segments"],
        quick=100_000, full=400_000, warmup=100_000),
    # Half TCP, half UDP at a 15 us stagger: thousands of connections in
    # flight at once stress the kernel timers (per-connection retransmit /
    # delayed-ack / TIME_WAIT timers) and the O(1) port allocators.
    _flows_record("many_flows", (2_000, 6_000, 2_000), tcp_object=512,
                  udp_reply=128, stagger_us=15.0, deferred=False,
                  is_tcp=lambda index, scale: index < scale // 2,
                  kinds=("many_udp", "many_tcp")),
    # The same shape at memory scale: mostly UDP (every 8th flow TCP) at a
    # 2 us stagger across as many client hosts as the port space needs,
    # every reply withheld until all flows are live.
    _flows_record("mega_flows", (50_000, 100_000, 2_000), tcp_object=256,
                  udp_reply=64, stagger_us=2.0, deferred=True,
                  is_tcp=lambda index, scale: index % 8 == 0,
                  kinds=("mega_udp", "mega_tcp"),
                  hosts=lambda scale: -(-scale // _FLOWS_PER_HOST) + 1),
    # ``scale`` is datagrams per host.
    Workload(
        name="fabric_fat_tree", build=_fat_tree_bed, setup=_fabric_setup,
        fingerprint=_fabric_fingerprint,
        packets=lambda state: state["received"],
        quick=40, full=200, warmup=10, kinds=("fabric_dgram",)),
    # Closed-loop decomposition probes (repro.bench.slo attaches an
    # SloTracker): Figure 5's ping-pong, and sequential object fetches
    # over a clean and a bursty-loss wire, bounded so a lost handshake
    # can never hang the harness.
    _udp_echo_record("udp_clean", (10, 20, 10), ports=_ECHO_PORTS,
                     creds=("probe-pong", "probe-ping"), kind="udp_probe",
                     payload=64),
]
for _name, _impaired in (("tcp_clean", False), ("tcp_impaired", True)):
    _RECORDS.append(_tcp_objects_record(
        _name, (10, 20, 10), kind="tcp_probe", impaired=_impaired,
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
            _leg + _suffix, (150, 600, 10), ports=_ECHO_PORTS,
            creds=("slo-echo", "slo-client"), kind="udp_echo", paced=_leg,
            closed=_closed))
for _gap in (5000, 2000):
    for _suffix, _closed in (("", False), ("/closed", True)):
        _leg = "tcp_objects@g%d" % _gap
        _RECORDS.append(_tcp_objects_record(
            _leg + _suffix, (60, 240, 10), kind="tcp_object", closed=_closed,
            plan_of=lambda n, leg=_leg: schedule(leg, n)))

#: name -> record, in registration order.
WORKLOADS: Dict[str, Workload] = {record.name: record for record in _RECORDS}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

#: environment overrides per benchmark mode.  ``uncached`` is the
#: reference oracle -- every raise the interpreted linear scan -- whose
#: fingerprints the generated-code run must equal.
MODES: Dict[str, Dict[str, str]] = {
    "current": {},
    "uncached": {"REPRO_FLOW_CACHE": "0"},
}


@contextlib.contextmanager
def env_override(overrides: Dict[str, str]) -> Iterator[None]:
    """Apply ``overrides`` to ``os.environ`` for the block, then restore.
    Every run builds a fresh bed, so the flow-cache switch is read under
    the override."""
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextlib.contextmanager
def _gc_quiesced() -> Iterator[None]:
    """Quiesce the cyclic collector around a timed region (pyperf does
    the same): GC pauses land randomly and are the dominant run-to-run
    noise source.  Simulated time cannot observe this."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _result(wall: float, events: int, packets: int, fingerprint: Dict,
            metrics: Dict) -> Dict:
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "metrics": metrics,
        "fingerprint": fingerprint,
    }


def run_once(record: Workload, scale: int, instrument=None) -> Dict:
    """Run ``record`` on a single engine: build -> instrument -> setup ->
    GC-quiesce -> time -> record.

    ``instrument`` is called with the freshly built bed before the
    scenario is wired -- the hook ``repro.obs`` uses to attach profilers
    and tracers -- and may return a
    :class:`~repro.obs.slo.RequestLifecycle` for the scenario to report
    its requests to.  Neither may perturb simulated time.  The metrics
    snapshot is taken after the timed region: every run builds a fresh
    bed whose counters start at zero, so the snapshot *is* the run's
    registry delta.
    """
    bed = record.build(scale)
    lifecycle = instrument(bed) if instrument is not None else None
    state, main = record.setup(bed, scale, lifecycle)
    engine = bed.engine
    until = state.get("until")
    with _gc_quiesced():
        wall0 = time.perf_counter()
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
        wall = time.perf_counter() - wall0
    return _result(wall, engine.events_processed, record.packets(state),
                   record.fingerprint(state, bed),
                   instrument_testbed(bed).snapshot())


def _shard_task(payload: Tuple[str, int, int, int]) -> Dict:
    """Build shard ``index`` of ``n`` of a registered workload on an
    engine of its own, run it dry and return its result (a pool task: it
    runs in a forked worker under ``parallel=True``, so everything but
    the payload and the result is shard-local)."""
    name, scale, n, index = payload
    record = WORKLOADS[name]
    engine = Engine()
    scale = record.split(scale, n, index)
    bed = record.build(scale, engine)
    state, main_factory = record.setup(bed, scale)
    main = engine.process(main_factory(), name=record.name)
    engine.run()
    if not main.triggered:
        raise SimulationError(
            "shard %d of %d is not done but no events are pending "
            "(deadlock at t=%r)" % (index, n, engine.now))
    main.value  # surfaces any exception that escaped the workload
    return {
        "fingerprint": record.fingerprint(state, bed),
        "packets": record.packets(state),
        "events": engine.events_processed,
        "metrics": instrument_testbed(bed).snapshot(),
    }


def _check_shards(record: Workload, scale: int, sim_jobs: int) -> None:
    if sim_jobs < 1:
        raise ValueError("sim_jobs must be >= 1, got %d" % sim_jobs)
    if record.split is None:
        raise ValueError(
            "sharding needs a shardable workload (%s), not %r"
            % (", ".join(name for name, other in WORKLOADS.items()
                         if other.split is not None), record.name))
    if min(record.split(scale, sim_jobs, index)
           for index in range(sim_jobs)) < 1:
        raise ValueError("%s needs scale >= 1 in every partition "
                         "(scale=%d, sim_jobs=%d)"
                         % (record.name, scale, sim_jobs))


def run_partitioned(record: Workload, scale: int, sim_jobs: int,
                    parallel: bool = True) -> Dict:
    """Run a shardable ``record`` as ``sim_jobs`` shards.

    ``parallel=True`` hands the pool one worker per shard;
    ``parallel=False`` hands it one job, which runs the same tasks in
    this process in index order -- the reference the forked run must
    equal (a worker's exception arrives with its remote traceback, a
    worker that dies fails the run with ``BrokenProcessPool``).  The
    fingerprint is defined over the merged shards --
    counters summed (peaks are concurrent *per shard*; the sum is the
    testbed-wide concurrency the sharded run sustained), the final clock
    their maximum -- and carries a ``partitions`` field, so it is
    comparable only against runs at the same shard count: the reference
    is the in-process run at equal ``sim_jobs``, never the single-engine
    record.
    """
    _check_shards(record, scale, sim_jobs)
    payloads = [(record.name, scale, sim_jobs, index)
                for index in range(sim_jobs)]
    with _gc_quiesced():
        wall0 = time.perf_counter()
        shards = map_tasks(_shard_task, payloads, sim_jobs if parallel else 1)
        wall = time.perf_counter() - wall0
    fingerprints = [shard["fingerprint"] for shard in shards]
    fingerprint = {key: sum(each[key] for each in fingerprints)
                   for key in fingerprints[0]}
    fingerprint["final_now_us"] = max(each["final_now_us"]
                                      for each in fingerprints)
    fingerprint["partitions"] = sim_jobs
    result = _result(wall, sum(shard["events"] for shard in shards),
                     sum(shard["packets"] for shard in shards), fingerprint,
                     merge_snapshots([shard["metrics"] for shard in shards]))
    result.update(sim_jobs=sim_jobs,
                  executor=("parallel" if parallel and sim_jobs > 1
                            else "serial"))
    return result


def run_workload(name: str, quick: bool = False, instrument=None,
                 mode: str = "current") -> Dict:
    """Run a registered workload once at its quick or full scale, on the
    dispatch rung ``mode`` selects via :data:`MODES`.

    One discarded warm-up pass comes first, so imports, codegen
    ``compile()`` calls and allocator pools are not part of the reported
    ``wall_s``.  It is uninstrumented: the warm-up bed is thrown away
    and must not pollute a profiler.
    """
    record = WORKLOADS[name]
    scale = record.scale(quick)
    with env_override(MODES[mode]):
        run_once(record, record.warmup)
        result = run_once(record, scale, instrument)
    result.update(name=name, scale=scale, quick=quick)
    return result
