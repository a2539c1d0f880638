"""The six perfbench workloads.

Each ``make_*`` builds a fresh testbed from ``(scale, seed)``, generates
the inputs, and returns ``(run, finish)``: ``run()`` is the measured
region (nothing but the load), ``finish()`` reads results, runs the
output checks and returns a :class:`Rep`.  The load calls
``progress.tick()`` at every unit of progress, the same sequence of ticks
in every rep; the harness cuts the rep into timed slices there
(:mod:`perfbench.calibrate`).
The bodies live here, and call only public ``repro.*`` API, so that a
change to ``repro.bench.wallclock`` cannot change the load.

An *op* is the unit every per-op metric divides by; it is stated per
workload in :data:`WORKLOADS` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import random
import resource
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.testbed import build_testbed
from repro.core.manager import Credential
from repro.fabric import OpenLoopSource, fat_tree
from repro.hw.alpha import MICROSECONDS_PER_SECOND
from repro.lang.ephemeral import ephemeral
from repro.net.headers import ip_aton
from repro.obs import (
    CpuProfiler,
    RequestLifecycle,
    SloTracker,
    SpanTracer,
    instrument_testbed,
    percentile,
)
from repro.sim import Engine, Signal
from repro.spin import SpinKernel
from repro.unixos.sockets import Poller

#: the seed ``expected.json`` pins simulated results for
DEFAULT_SEED = 1996

#: ``--fault`` values: deliberate harness faults that prove a check can fail
FAULTS = ("truncate-tcp",)


class Rep:
    """What one run of a workload produced."""

    def __init__(self, ops_attempted: int, ops: int, sim: Dict[str, float],
                 fingerprint: Dict, counts: Dict[str, float],
                 problems: List[str]):
        self.ops_attempted = ops_attempted
        self.ops = ops                  # ops completed (the per-op divisor)
        self.sim = sim                  # simulated end results, exact
        self.fingerprint = fingerprint  # every simulated output, exact
        self.counts = counts            # per-layer work counts, exact
        self.problems = problems        # violated output checks
        self.wall_s = 0.0               # filled in by the harness,
        self.slicer = None              # as is this: the rep's timed slices

    @property
    def failed(self) -> int:
        """A violated check counts every op of the rep as failed."""
        return self.ops_attempted if self.problems else 0


class Workload(NamedTuple):
    make: Callable            # (scale, seed, progress, fault) -> (run, finish)
    scale: int                # timed reps: sized for >= 1.5 s on the dev host
    profile_scale: int        # warm-up and the cProfile pass
    opcode_scale: int         # the opcode pass, which costs ~45x
    slice_ticks: int          # ticks to a timed slice, 10-15 ms of work
    op: str
    loop: str


def _gauge(snapshot: Dict, name: str) -> float:
    record = snapshot.get(name)
    return record["value"] if record is not None else 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_counts(snapshot: Dict, ops: int, extra: Optional[Dict] = None
                  ) -> Dict[str, float]:
    """Per-layer work counts from the public registry snapshot."""
    raises = _gauge(snapshot, "spin.dispatcher.raises")
    hits = _gauge(snapshot, "spin.flowcache.hits")
    lookups = (_gauge(snapshot, "fabric.table.hits")
               + _gauge(snapshot, "fabric.table.misses"))
    counts = {
        "sim.events_per_op": _ratio(
            _gauge(snapshot, "sim.engine.events_processed"), ops),
        "sim.timers_per_op": _ratio(
            _gauge(snapshot, "sim.wheel.scheduled"), ops),
        "hw.tx_frames_per_op": _ratio(
            _gauge(snapshot, "hw.nic.tx_frames"), ops),
        "hw.rx_drops": _gauge(snapshot, "hw.nic.rx_drops"),
        "spin.raises_per_op": _ratio(raises, ops),
        "spin.invocations_per_raise": _ratio(
            _gauge(snapshot, "spin.dispatcher.invocations"), raises),
        "spin.flowcache_hit_ratio": _ratio(
            hits, hits + _gauge(snapshot, "spin.flowcache.misses")),
        "spin.flowcache_invalidations": _gauge(
            snapshot, "spin.flowcache.invalidations"),
        "spin.flowcache_evictions": _gauge(
            snapshot, "spin.flowcache.evictions"),
        "spin.compiled_replay_ratio": _ratio(
            _gauge(snapshot, "spin.flowcache.compiled.replays"), raises),
        "spin.compiled_plans": _gauge(
            snapshot, "spin.flowcache.compiled.plans"),
        "spin.mbufs_per_op": _ratio(
            _gauge(snapshot, "spin.mbuf.allocated"), ops),
        "spin.mbufs_in_use_at_end": _gauge(snapshot, "spin.mbuf.in_use"),
        "net.tcp.segments_out_per_op": _ratio(
            _gauge(snapshot, "net.tcp.segments_out"), ops),
        "net.tcp.checksum_errors": _gauge(
            snapshot, "net.tcp.checksum_errors"),
        "net.udp.datagrams_per_op": _ratio(
            _gauge(snapshot, "net.udp.datagrams_out"), ops),
        "unixos.kb_per_flow": 0.0,
        "unixos.peak_conns": 0,
        "fabric.lookups_per_op": _ratio(lookups, ops),
        "fabric.table_hit_ratio": _ratio(
            _gauge(snapshot, "fabric.table.hits"), lookups),
        "fabric.ecmp_per_op": _ratio(
            _gauge(snapshot, "fabric.pipeline.ecmp"), ops),
        "fabric.dropped": _gauge(snapshot, "fabric.pipeline.dropped"),
    }
    counts.update(extra or {})
    return counts


def _latency(samples_us: List[float]) -> Dict[str, float]:
    ordered = sorted(samples_us)
    if not ordered:
        return {"sim_latency_p50_us": 0.0, "sim_latency_p99_us": 0.0}
    return {"sim_latency_p50_us": percentile(ordered, 0.50),
            "sim_latency_p99_us": percentile(ordered, 0.99)}


def _mbps(payload_bytes: int, elapsed_us: float) -> float:
    if elapsed_us <= 0:
        return 0.0
    return payload_bytes * 8.0 / elapsed_us * MICROSECONDS_PER_SECOND / 1e6


def _common_checks(snapshot: Dict, problems: List[str]) -> None:
    for name in ("hw.nic.rx_drops", "net.tcp.checksum_errors",
                 "net.udp.checksum_errors"):
        if _gauge(snapshot, name):
            problems.append("%s = %r, expected 0" % (name, _gauge(snapshot, name)))


# ---------------------------------------------------------------------------
# udp_rtt_spin / udp_rtt_spin_obs
# ---------------------------------------------------------------------------

def make_udp_rtt(scale: int, seed: int, progress,
                 fault: Optional[str] = None, observed: bool = False):
    """8-byte UDP ping-pong between two in-kernel Plexus extensions."""
    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    engine = bed.engine
    client_stack, server_stack = bed.stacks
    client_host = bed.hosts[0]

    registry = lifecycle = None
    if observed:
        # Everything an operator can switch on, at once: the registry,
        # the span timeline, SLO queueing attribution and the simulated-
        # CPU profiler.  The three trackers wrap stage_tx/frame_on_wire
        # and hook the CPU the way observers do today.
        registry = instrument_testbed(bed)
        SpanTracer(engine).attach(bed.hosts, bed.nics)
        tracker = SloTracker(engine).attach(bed.hosts, bed.nics)
        CpuProfiler().attach(bed.hosts)
        lifecycle = RequestLifecycle(engine, tracker)

    rng = random.Random(seed)
    payloads = [rng.randbytes(8) for _ in range(scale)]
    state = {"replies": 0, "echo_errors": 0, "expect": b"", "first_at": None}
    reply_seen = Signal(engine)
    server_ep = None

    @ephemeral
    def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        payload = bytes(m.to_bytes()[off:])
        server_ep.send(payload, src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        state["replies"] += 1
        if bytes(m.to_bytes()[off:]) != state["expect"]:
            state["echo_errors"] += 1
        client_host.defer(reply_seen.fire)

    server_ep = server_stack.udp_manager.bind(
        Credential("pong"), 7002, server_handler)
    client_ep = client_stack.udp_manager.bind(
        Credential("ping"), 7001, client_handler)
    server_ip = bed.ip(1)
    samples: List[float] = []

    def ping_loop():
        state["first_at"] = engine.now
        for payload in payloads:
            start = engine.now
            state["expect"] = payload
            request = lifecycle.begin("udp_echo") if observed else None
            waiter = reply_seen.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(payload, server_ip, 7002))
            yield waiter
            if observed:
                lifecycle.end(request)
            samples.append(engine.now - start)
            progress.tick()

    def run():
        engine.run_process(ping_loop(), name="perfbench-ping")

    def finish() -> Rep:
        snapshot = (registry or instrument_testbed(bed)).snapshot()
        problems: List[str] = []
        if state["replies"] != scale or len(samples) != scale:
            problems.append("trips sent %d != replies seen %d"
                            % (scale, state["replies"]))
        if state["echo_errors"]:
            problems.append("%d replies did not echo the payload"
                            % state["echo_errors"])
        if observed:
            unreconciled = sum(
                1 for request in lifecycle.completed
                if sum(request.components.values()) != request.total_ns)
            if len(lifecycle.completed) != scale or unreconciled:
                problems.append(
                    "SLO decomposition: %d requests, %d do not reconcile"
                    % (len(lifecycle.completed), unreconciled))
        _common_checks(snapshot, problems)
        elapsed = engine.now - state["first_at"]
        busy = _gauge(snapshot, "hw.cpu.busy_us")
        sim = _latency(samples)
        sim["sim_goodput_mbps"] = _mbps(8 * state["replies"], elapsed)
        sim["sim_cpu_us_per_op"] = _ratio(busy, len(samples))
        fingerprint = dict(sim, trips=len(samples), rtt_sum_us=sum(samples),
                           final_now_us=engine.now, cpu_busy_us=busy)
        return Rep(scale, len(samples), sim, fingerprint,
                   _layer_counts(snapshot, len(samples)), problems)

    return run, finish


# ---------------------------------------------------------------------------
# tcp_bulk_spin
# ---------------------------------------------------------------------------

_TCP_BLOCK = 1 << 20
_TCP_CHUNK = 32 * 1024


def make_tcp_bulk_spin(scale: int, seed: int, progress,
                       fault: Optional[str] = None):
    """One bulk TCP transfer of ``scale`` bytes over ATM between SPIN hosts."""
    bed = build_testbed("spin", "atm", deliver_mode="interrupt")
    engine = bed.engine
    sender_stack, receiver_stack = bed.stacks
    sender_host, receiver_host = bed.hosts

    # The stream is one seeded 1 MiB block, repeated: incompressible for
    # the checksum code, and cheap to digest ahead of the measured region.
    block = random.Random(seed).randbytes(_TCP_BLOCK)
    source = memoryview(block)
    expected = hashlib.blake2b(digest_size=16)
    whole, tail = divmod(scale, _TCP_BLOCK)
    for _ in range(whole):
        expected.update(block)
    expected.update(source[:tail])

    state = {"received": 0, "checked": 0, "segments": 0, "sent": 0,
             "first_byte_at": None, "last_byte_at": None}
    digest = hashlib.blake2b(digest_size=16)
    done = Signal(engine)

    truncate = fault == "truncate-tcp"

    def on_accept(tcb):
        def on_data(data: bytes) -> None:
            if state["first_byte_at"] is None:
                state["first_byte_at"] = engine.now
            state["received"] += len(data)
            if truncate and not state["segments"]:
                data = data[:-1]    # the seeded fault: lose one byte
            digest.update(data)
            state["checked"] += len(data)
            state["segments"] += 1
            progress.tick()
            state["last_byte_at"] = engine.now
            if state["received"] >= scale:
                receiver_host.defer(done.fire)
        tcb.on_data = on_data

    receiver_stack.tcp_manager.listen(Credential("sink"), 9000, on_accept)

    def pump(tcb) -> None:
        while state["sent"] < scale and tcb.send_space > 0:
            at = state["sent"] % _TCP_BLOCK
            take = min(_TCP_CHUNK, scale - state["sent"], _TCP_BLOCK - at)
            accepted = tcb.send(bytes(source[at:at + take]))
            state["sent"] += accepted
            if accepted == 0:
                break

    def start():
        def work():
            tcb = sender_stack.tcp_manager.connect(
                Credential("source"), bed.ip(1), 9000)
            tcb.on_established = lambda: pump(tcb)
            tcb.on_sendable = lambda space: pump(tcb)
        yield from sender_host.kernel_path(work)
        yield done.wait()

    def run():
        engine.run_process(start(), name="perfbench-tcp")

    def finish() -> Rep:
        snapshot = instrument_testbed(bed).snapshot()
        problems: List[str] = []
        if state["checked"] != scale or state["sent"] != scale:
            problems.append("TCP bytes received %d != sent %d (of %d)"
                            % (state["checked"], state["sent"], scale))
        if digest.digest() != expected.digest():
            problems.append("blake2 digest of the received stream differs")
        _common_checks(snapshot, problems)
        segments = state["segments"]
        elapsed = (state["last_byte_at"] or 0.0) - (state["first_byte_at"] or 0.0)
        busy = _gauge(snapshot, "hw.cpu.busy_us")
        sim = _latency([])
        sim["sim_goodput_mbps"] = _mbps(state["received"], elapsed)
        sim["sim_cpu_us_per_op"] = _ratio(busy, segments)
        fingerprint = dict(sim, bytes=state["received"], segments=segments,
                           final_now_us=engine.now, cpu_busy_us=busy)
        # The segment count is the model's; attempted ops are the ones
        # it delivered, all of which fail when a check does.
        return Rep(segments, segments, sim, fingerprint,
                   _layer_counts(snapshot, segments), problems)

    return run, finish


# ---------------------------------------------------------------------------
# flows_unix
# ---------------------------------------------------------------------------

def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def make_flows_unix(scale: int, seed: int, progress,
                    fault: Optional[str] = None):
    """``scale`` short flows (half TCP, half UDP) against one UNIX server."""
    bed = build_testbed("unix", "atm", deliver_mode="interrupt")
    engine = bed.engine
    server_host = bed.hosts[1]
    client_sockets, server_sockets = bed.sockets[0], bed.sockets[1]
    server_ip = bed.ip(1)
    tcp_port, udp_port = 80, 5004
    stagger_us = 15.0

    rng = random.Random(seed)
    tcp_object = rng.randbytes(512)     # the pushed "page"
    udp_request = rng.randbytes(16)
    udp_reply = rng.randbytes(128)
    is_tcp = [index < scale // 2 for index in range(scale)]
    rng.shuffle(is_tcp)                 # the seeded TCP/UDP interleave

    state = {"done": 0, "bytes_in": 0, "short": 0, "served": 0,
             "peak_conns": 0, "first_at": None}
    samples: List[float] = []
    server_ready = Signal(engine)
    all_done = Signal(engine)

    def flow_finished(started: float, received: int, wanted: int) -> None:
        samples.append(engine.now - started)
        state["done"] += 1
        progress.tick()
        state["bytes_in"] += received
        if received != wanted:
            state["short"] += 1
        if state["done"] == scale:
            all_done.fire()

    def tcp_client(index: int):
        yield engine.pooled_timeout(index * stagger_us)
        started = engine.now
        sock = client_sockets.tcp_socket()
        yield from sock.connect((server_ip, tcp_port))
        received = 0
        while True:
            data = yield from sock.recv()
            if not data:
                break
            received += len(data)
        yield from sock.close()
        flow_finished(started, received, len(tcp_object))

    def udp_client(index: int):
        yield engine.pooled_timeout(index * stagger_us)
        started = engine.now
        sock = client_sockets.udp_socket()
        yield from sock.bind()
        yield from sock.sendto(udp_request, (server_ip, udp_port))
        data, _addr = yield from sock.recvfrom()
        sock.close()
        flow_finished(started, len(data) if data == udp_reply else -1,
                      len(udp_reply))

    def server():
        listener = server_sockets.tcp_socket()
        yield from listener.listen(tcp_port, backlog=scale)
        udp = server_sockets.udp_socket()
        yield from udp.bind(udp_port)
        poller = Poller(server_host)
        poller.register(listener)
        poller.register(udp)
        server_ready.fire()
        connections = server_sockets.stack.tcp.connections
        while state["served"] < scale:
            ready = yield from poller.wait()
            state["peak_conns"] = max(state["peak_conns"], len(connections))
            for sock in ready:
                if sock is listener:
                    while sock.accept_queue:
                        child = yield from listener.accept()
                        yield from child.send(tcp_object)
                        yield from child.close()
                        # Keep watching until the peer's FIN lands, so the
                        # poller tracks every in-flight connection.
                        poller.register(child)
                        state["served"] += 1
                        progress.tick()
                elif sock is udp:
                    while sock.buffer.items:
                        _data, addr = yield from udp.recvfrom()
                        yield from udp.sendto(udp_reply, addr)
                        state["served"] += 1
                        progress.tick()
                else:   # a pushed child reached EOF: reap it
                    poller.unregister(sock)

    def main():
        engine.process(server(), name="pb-server")
        yield server_ready.wait()
        state["first_at"] = engine.now
        for index in range(scale):
            client = tcp_client if is_tcp[index] else udp_client
            engine.process(client(index), name="pb-flow-%d" % index)
        yield all_done.wait()

    def run():
        before_kb = _peak_rss_kb()
        engine.run_process(main(), name="perfbench-flows")
        # Peak growth over the rep: only the first full-scale rep of a
        # process reads true, which is the one run.py reports.
        state["rss_grew_kb"] = _peak_rss_kb() - before_kb

    def finish() -> Rep:
        snapshot = instrument_testbed(bed).snapshot()
        problems: List[str] = []
        if state["done"] != scale or state["served"] != scale:
            problems.append("flows completed %d, served %d, of %d"
                            % (state["done"], state["served"], scale))
        if state["short"]:
            problems.append("%d flows ended with the wrong bytes"
                            % state["short"])
        _common_checks(snapshot, problems)
        busy = _gauge(snapshot, "hw.cpu.busy_us")
        sim = _latency(samples)
        sim["sim_goodput_mbps"] = _mbps(state["bytes_in"],
                                        engine.now - state["first_at"])
        sim["sim_cpu_us_per_op"] = _ratio(busy, state["done"])
        fingerprint = dict(sim, flows=state["done"], bytes_in=state["bytes_in"],
                           peak_conns=state["peak_conns"],
                           latency_sum_us=sum(samples),
                           final_now_us=engine.now, cpu_busy_us=busy)
        counts = _layer_counts(snapshot, state["done"], {
            "unixos.kb_per_flow": _ratio(state["rss_grew_kb"], scale),
            "unixos.peak_conns": state["peak_conns"],
        })
        return Rep(scale, state["done"], sim, fingerprint, counts, problems)

    return run, finish


# ---------------------------------------------------------------------------
# fabric_open_loop
# ---------------------------------------------------------------------------

_FABRIC_K = 4
_FABRIC_RX_PORT = 9000
_FABRIC_TX_PORT = 9001
#: mean gap between one host's departures.  At 150 us every edge host's
#: simulated CPU is ~40% busy and the busiest core switch ~80%: queues
#: form in bursts and drain, and the backlog cannot grow.
_FABRIC_MEAN_GAP_US = 150.0


def make_fabric_open_loop(scale: int, seed: int, progress,
                          fault: Optional[str] = None):
    """Every edge host sends ``scale`` frames across the core, open loop."""
    bed = fat_tree(_FABRIC_K)
    engine = bed.engine
    k, half, hpe = bed.fat_tree_k, bed.fat_tree_k // 2, bed.hosts_per_edge

    # Open-loop UDP carries no retransmit, so a dropped frame would never
    # arrive: provision every ring for a pod's worth of frames.
    for nic in bed.nics:
        nic.provision_rings(max(256, scale * half * hpe))

    n_hosts = len(bed.host_locator)
    expected = scale * n_hosts
    state = {"sent": 0, "received": 0, "bytes": 0, "bytes_sent": 0,
             "unknown": 0, "late_us": 0.0, "first_at": None, "last_at": 0.0}
    due_at: Dict[Tuple[int, int], float] = {}
    samples: List[float] = []
    all_done = Signal(engine)
    filler = random.Random(seed).randbytes(1400)

    @ephemeral
    def receive(m, off, src_ip, src_port, dst_ip, dst_port):
        data = m.to_bytes()
        # int.from_bytes is not on the ephemeral safe list; shift
        # arithmetic on indexed bytes says the same thing.
        key = ((data[off] << 8) | data[off + 1],
               (data[off + 2] << 8) | data[off + 3])
        due = due_at.pop(key, None)
        if due is None:
            state["unknown"] += 1
        else:
            samples.append(engine.now - due)
        state["received"] += 1
        state["bytes"] += len(data) - off
        progress.tick()
        state["last_at"] = engine.now
        if state["received"] == expected:
            all_done.fire()

    plans = []
    for index, (p, e, s) in enumerate(bed.host_locator):
        stack = bed.stacks[index]
        stack.udp_manager.bind(Credential("pb-rx-%d" % index),
                               _FABRIC_RX_PORT, receive)
        endpoint = stack.udp_manager.bind(Credential("pb-tx-%d" % index),
                                          _FABRIC_TX_PORT, receive)
        gid = (p * half + e) * hpe + s
        source = OpenLoopSource(
            seed=seed * 1000 + gid,
            arrival="poisson" if gid % 2 == 0 else "pareto",
            mean_gap_us=_FABRIC_MEAN_GAP_US,
            size_dist="fixed" if gid % 2 == 0 else "pareto",
            fixed_size=256, min_size=32, max_size=1400)
        # The pod opposite, same (edge, slot): every frame crosses the core.
        dst_ip = ip_aton("10.%d.%d.%d" % ((p + half) % k, e, s + 2))
        plans.append((bed.hosts[index], gid, endpoint, dst_ip,
                      source.schedule(scale)))

    def start_sender(host, gid, endpoint, dst_ip, plan) -> None:
        # Departures are due at absolute simulated instants fixed by the
        # schedule alone; each fires from call_at and queues for the CPU
        # on its own, so a busy host delays frames, never the generator.
        def send(payload: bytes) -> None:
            endpoint.send(payload, dst_ip, _FABRIC_RX_PORT)
            state["sent"] += 1

        def depart(seq: int, due: float) -> None:
            def fire(_event) -> None:
                state["late_us"] = max(state["late_us"], engine.now - due)
                size = plan[seq][1]
                payload = (gid.to_bytes(2, "big") + seq.to_bytes(2, "big")
                           + filler[:size - 4])
                due_at[(gid, seq)] = due
                state["bytes_sent"] += size
                host.spawn_kernel_path(send, (payload,), name="pb-send")
                if seq + 1 < len(plan):
                    depart(seq + 1, due + plan[seq + 1][0])
            engine.call_at(due, fire)

        depart(0, engine.now + plan[0][0])

    def main():
        state["first_at"] = engine.now
        for plan in plans:
            start_sender(*plan)
        yield all_done.wait()

    def run():
        engine.run_process(main(), name="perfbench-fabric")

    def finish() -> Rep:
        snapshot = instrument_testbed(bed).snapshot()
        problems: List[str] = []
        if state["sent"] != expected or state["received"] != expected:
            problems.append("frames sent %d, received %d, of %d"
                            % (state["sent"], state["received"], expected))
        if state["bytes"] != state["bytes_sent"] or state["unknown"] or due_at:
            problems.append(
                "payload bytes received %d != sent %d (%d unknown, %d missing)"
                % (state["bytes"], state["bytes_sent"], state["unknown"],
                   len(due_at)))
        if state["late_us"] != 0.0:
            problems.append("generator ran %r us late" % state["late_us"])
        if _gauge(snapshot, "fabric.pipeline.dropped"):
            problems.append("fabric dropped %d frames"
                            % _gauge(snapshot, "fabric.pipeline.dropped"))
        problems.extend(bed.switch_conservation())
        _common_checks(snapshot, problems)
        busy = _gauge(snapshot, "hw.cpu.busy_us")
        sim = _latency(samples)
        sim["sim_goodput_mbps"] = _mbps(state["bytes"],
                                        state["last_at"] - state["first_at"])
        sim["sim_cpu_us_per_op"] = _ratio(busy, state["received"])
        fingerprint = dict(sim, received=state["received"], bytes=state["bytes"],
                           latency_sum_us=sum(samples),
                           forwarded=_gauge(snapshot, "fabric.pipeline.forwarded"),
                           ecmp=_gauge(snapshot, "fabric.pipeline.ecmp"),
                           final_now_us=engine.now, cpu_busy_us=busy)
        return Rep(expected, state["received"], sim, fingerprint,
                   _layer_counts(snapshot, state["received"]), problems)

    return run, finish


# ---------------------------------------------------------------------------
# dispatch_churn
# ---------------------------------------------------------------------------

_CHURN_FLOWS = 64
_CHURN_EVERY = 4


def make_dispatch_churn(scale: int, seed: int, progress,
                        fault: Optional[str] = None):
    """``scale`` flow-cached raises while one guarded handler comes and goes."""
    engine = Engine()
    kernel = SpinKernel(engine, "perfbench-churn")
    dispatcher = kernel.dispatcher
    event = dispatcher.declare("Perfbench.Churn")
    hits = [0]

    def handler(value):
        hits[0] += 1

    def make_guard(wanted):
        def guard(value):
            return value % 4 == wanted
        return guard

    def extra_guard(value):
        return value % 2 == 0

    for index in range(4):
        dispatcher.install(event, handler)
        dispatcher.install(event, handler, guard=make_guard(index))

    flows = [dispatcher.flow_cache.entry_for(("perfbench", index))
             for index in range(_CHURN_FLOWS)]
    # A flow's plan records guard verdicts, so the raised value has to be
    # a function of the flow, as a packet's headers are of its flow key.
    rng = random.Random(seed)
    flow_value = [rng.randrange(1 << 16) for _ in range(_CHURN_FLOWS)]
    order = [rng.randrange(_CHURN_FLOWS) for _ in range(scale)]
    values = [flow_value[flow] for flow in order]
    # Closed form: the four unguarded handlers always run, exactly one of
    # the four ``value % 4`` guards passes, and the churned handler runs
    # on even values while it is installed (every other block of raises).
    wanted = sum(5 + (index // _CHURN_EVERY % 2 == 0 and value % 2 == 0)
                 for index, value in enumerate(values))
    state = {"matched": 0, "charged_us": 0.0}

    def run():
        install, raise_flow = dispatcher.install, dispatcher.raise_flow
        matched = 0
        extra = None
        marker = kernel.cpu.begin()
        for index in range(scale):
            if index % _CHURN_EVERY == 0:
                if extra is None:
                    extra = install(event, handler, guard=extra_guard)
                else:
                    extra.uninstall()
                    extra = None
            matched += raise_flow(event, flows[order[index]], values[index])
            progress.tick()
        state["charged_us"] = kernel.cpu.end(marker)
        state["matched"] = matched

    def finish() -> Rep:
        # One kernel and no network: the shape instrument_testbed accepts.
        snapshot = instrument_testbed(SimpleNamespace(
            engine=engine, hosts=[kernel], stacks=(), nics=())).snapshot()
        problems: List[str] = []
        invocations = dispatcher.total_invocations
        if not (hits[0] == invocations == state["matched"] == wanted):
            problems.append(
                "invocations: handlers ran %d, dispatcher counted %d, raises "
                "returned %d, closed form %d"
                % (hits[0], invocations, state["matched"], wanted))
        if dispatcher.total_raises != scale:
            problems.append("raises %d != %d" % (dispatcher.total_raises, scale))
        sim = _latency([])
        sim["sim_goodput_mbps"] = 0.0
        sim["sim_cpu_us_per_op"] = _ratio(state["charged_us"], scale)
        fingerprint = dict(sim, raises=dispatcher.total_raises,
                           invocations=invocations,
                           charged_us=state["charged_us"])
        return Rep(scale, dispatcher.total_raises, sim, fingerprint,
                   _layer_counts(snapshot, scale), problems)

    return run, finish


WORKLOADS: Dict[str, Workload] = {
    "udp_rtt_spin": Workload(
        make_udp_rtt, 12_000, 1_200, 200, 100,
        "round trip", "closed loop, 1 client"),
    "udp_rtt_spin_obs": Workload(
        partial(make_udp_rtt, observed=True), 7_000, 700, 120, 50,
        "round trip", "closed loop, 1 client"),
    "tcp_bulk_spin": Workload(
        make_tcp_bulk_spin, 80_000_000, 8_000_000, 2_000_000, 50,
        "data segment delivered", "closed loop, 1 connection, window-limited"),
    "flows_unix": Workload(
        make_flows_unix, 3_000, 300, 60, 50,
        "flow completed", "closed loop per flow, arrivals on a 15 us stagger"),
    "fabric_open_loop": Workload(
        make_fabric_open_loop, 600, 60, 12, 40,
        "frame delivered", "open loop, 8 hosts, mean gap 150 us each"),
    "dispatch_churn": Workload(
        make_dispatch_churn, 200_000, 20_000, 2_000, 2_000,
        "raise", "closed loop, no engine"),
}
