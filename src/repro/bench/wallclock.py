"""Wall-clock performance of the simulator itself.

Every other module in :mod:`repro.bench` measures *simulated* time -- the
microseconds the modeled Alpha would take.  This one measures how fast the
simulator's substrate runs on the host machine, because wall-clock
throughput is what gates experiment scale: a million-packet Figure 6
sweep is bound by events/sec of the engine, not by the model.  Full-system
simulators treat simulator throughput as a first-class metric for the
same reason (gem5, ns-3-class tools).

Three canned, fully deterministic workloads:

* ``dispatcher_micro`` -- raw SPIN event dispatch: one event, eight
  handlers (half guarded), raised thousands of times under a single CPU
  accumulator.  No engine events at all; isolates dispatcher overhead.
* ``udp_pingpong`` -- the Figure 5 inner loop: UDP ping-pong between two
  in-kernel Plexus extensions over simulated Ethernet.  Exercises the
  whole packet path (mbufs, VIEW headers, checksum, dispatcher, engine).
* ``tcp_bulk`` -- the section 4.2 inner loop: bulk TCP transfer over
  simulated ATM.  Checksum- and segmentation-heavy.

Each workload returns both host-side metrics (``wall_s``,
``events_per_sec``, ``packets_per_sec``) and a **fingerprint** of
simulated-time outputs (final clock value, mean RTT, delivered Mb/s...).
The fingerprint is the determinism guard: any substrate optimization must
leave every fingerprint field *bit-identical*, because the simulation is
deterministic and wall-clock work must never leak into simulated time.

``python -m repro.bench --wallclock`` runs the suite and writes
``BENCH_wallclock.json`` at the repository root (schema documented in
EXPERIMENTS.md).  ``benchmarks/wallclock_baseline.json`` holds the
committed baseline -- including the measured performance of the
pre-optimization substrate -- that :func:`compare_to_baseline` checks
against.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from typing import Dict, List, Optional

__all__ = [
    "WORKLOADS",
    "run_workload",
    "run_suite",
    "fingerprints_only",
    "compare_to_baseline",
    "host_fingerprint",
    "write_report",
    "REPORT_SCHEMA_VERSION",
    "REPORT_FILENAME",
    "BASELINE_PATH",
]

#: Schema 2 added the per-workload ``flow_cache`` section (hit/miss/
#: invalidation/eviction counters of the compiled delivery paths).
#: Schema 3 adds the ``many_flows`` scale-out workload (its records carry
#: ``per_flow_kb`` and no ``flow_cache`` section -- the UNIX model has no
#: dispatcher).  Schema 4 adds the per-workload ``metrics`` section: the
#: full ``repro.obs`` registry snapshot of the workload's testbed, taken
#: after the timed region.  Every workload builds a fresh testbed whose
#: counters start at zero, so the snapshot *is* the registry delta for
#: that workload.  Schema 5 adds the ``host`` fingerprint (CPU / python
#: version, so cross-machine drift is labeled instead of silently
#: warned), the flow-cache ``compiled_*`` counters, and a second,
#: same-process run of every codegen-enabled workload on the
#: interpreted rung, which is what the comparison gate *fails* on --
#: same machine, same run, no cross-host noise.  The
#: report deliberately records nothing else about *how* it was produced
#: beyond ``generated_by``: a parallel run (``repro.bench.runner``,
#: ``--jobs N``) must emit the byte-identical file a serial run does.
#: Schema 6 adds the optional ``parallel`` section (``--sim-jobs N``):
#: one partitioned-``many_flows`` leg pairing the serial executor (the
#: ``REPRO_SIM_PARALLEL=0`` oracle) with the forked parallel executor at
#: equal partition count, gated on exact fingerprint/events/metrics
#: equality.  The classic ``workloads`` records are untouched by
#: ``--sim-jobs`` -- their fingerprints stay comparable to the committed
#: baseline regardless of the flag.
#: Schema 7 adds the on-demand ``fabric_fat_tree`` workload (open-loop
#: traffic across a k=4 fat-tree of match-action switches) and lets the
#: ``parallel`` section carry legs from more than one workload; existing
#: records and their fingerprints are unchanged.
#: Schema 8: that twin is now the ``REPRO_FLOW_CACHE=0`` linear scan
#: and is named for it -- section ``oracle`` (was ``prechange``), row
#: key ``events_per_sec_vs_oracle`` -- and ``flow_cache`` / ``metrics``
#: drop their ``compiled_enabled`` entries.  Fingerprints are unchanged.
REPORT_SCHEMA_VERSION = 8
REPORT_FILENAME = "BENCH_wallclock.json"

#: repo-root and committed-baseline locations, resolved relative to this file
#: (src/repro/bench/wallclock.py -> repo root is three levels up from repro/).
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
BASELINE_PATH = os.path.join(_REPO_ROOT, "benchmarks",
                             "wallclock_baseline.json")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _flow_cache_counters(hosts) -> Dict:
    """Aggregate flow-cache counters across every host in a workload.

    Host-side observability only: the counters describe how many event
    raises replayed a compiled plan versus walked the handler list, and
    never feed the simulated-time fingerprint (they legitimately differ
    under ``REPRO_FLOW_CACHE=0``).
    """
    total: Dict = {}
    for host in hosts:
        for key, value in host.dispatcher.flow_cache.counters().items():
            if key == "enabled":
                total[key] = bool(total.get(key)) or value
            else:
                total[key] = total.get(key, 0) + value
    return total


def _metrics_snapshot(bed) -> Dict:
    """The ``repro.obs`` registry snapshot of a finished workload bed.

    Taken outside the timed region; deterministic, so serial and
    parallel report generation stay byte-identical.
    """
    from ..obs.wire import instrument_testbed
    return instrument_testbed(bed).snapshot()


def _dispatcher_micro(scale: int, instrument=None) -> Dict:
    """Raw dispatch: 8 handlers (4 guarded), ``scale`` raises."""
    from types import SimpleNamespace

    from ..sim import Engine
    from ..spin.kernel import SpinKernel

    engine = Engine()
    kernel = SpinKernel(engine, "wallclock-micro")
    event = kernel.dispatcher.declare("Wallclock.Micro")
    # The micro-benchmark has no Testbed; a shim with the same shape
    # lets the obs layer attach profilers and registries all the same.
    bed = SimpleNamespace(engine=engine, hosts=[kernel], stacks=(), nics=())
    if instrument is not None:
        instrument(bed)

    hits = [0]

    def handler(value):
        hits[0] += 1

    def make_guard(wanted):
        def guard(value):
            return value % 4 == wanted
        return guard

    for index in range(4):
        kernel.dispatcher.install(event, handler)
        kernel.dispatcher.install(event, handler, guard=make_guard(index))

    wall0 = time.perf_counter()
    marker = kernel.cpu.begin()
    raise_event = kernel.dispatcher.raise_event
    for i in range(scale):
        raise_event(event, i)
    charged = kernel.cpu.end(marker)
    wall = time.perf_counter() - wall0

    invocations = kernel.dispatcher.total_invocations
    return {
        "wall_s": wall,
        # no engine events fire here; "events" are handler dispatches
        "events": invocations,
        "events_per_sec": invocations / wall if wall > 0 else 0.0,
        "packets": 0,
        "packets_per_sec": 0.0,
        "flow_cache": kernel.dispatcher.flow_cache.counters(),
        "metrics": _metrics_snapshot(bed),
        "fingerprint": {
            "raises": scale,
            "invocations": invocations,
            "charged_us": charged,
        },
    }


def _udp_pingpong(scale: int, instrument=None) -> Dict:
    """Figure 5 inner loop: ``scale`` UDP round trips over Ethernet."""
    from ..core.manager import Credential
    from ..lang.ephemeral import ephemeral
    from ..sim import Signal
    from .testbed import build_testbed

    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    if instrument is not None:
        instrument(bed)
    engine = bed.engine
    client_stack, server_stack = bed.stacks
    client_host = bed.hosts[0]

    reply_seen = Signal(engine)
    server_ep = None

    @ephemeral
    def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        payload = bytes(m.to_bytes()[off:])
        server_ep.send(payload, src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        client_host.defer(reply_seen.fire)

    server_ep = server_stack.udp_manager.bind(
        Credential("pong"), 7002, server_handler)
    client_ep = client_stack.udp_manager.bind(
        Credential("ping"), 7001, client_handler)

    samples: List[float] = []
    payload = bytes(8)

    def ping_loop():
        for _ in range(scale):
            start = engine.now
            waiter = reply_seen.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(payload, bed.ip(1), 7002))
            yield waiter
            samples.append(engine.now - start)

    wall0 = time.perf_counter()
    engine.run_process(ping_loop(), name="wallclock-ping")
    wall = time.perf_counter() - wall0

    events = engine.events_processed
    packets = 2 * scale  # one request + one reply per trip
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "flow_cache": _flow_cache_counters(bed.hosts),
        "metrics": _metrics_snapshot(bed),
        "fingerprint": {
            "trips": scale,
            "mean_rtt_us": sum(samples) / len(samples),
            "final_now_us": engine.now,
        },
    }


def _tcp_bulk(scale: int, instrument=None) -> Dict:
    """Section 4.2 inner loop: bulk TCP of ``scale`` bytes over ATM."""
    from ..core.manager import Credential
    from ..hw.alpha import MICROSECONDS_PER_SECOND
    from ..sim import Signal
    from .testbed import build_testbed

    bed = build_testbed("spin", "atm", deliver_mode="interrupt")
    if instrument is not None:
        instrument(bed)
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

    def start():
        def work():
            tcb = sender_stack.tcp_manager.connect(
                Credential("source"), bed.ip(1), 9000)
            tcb.on_established = lambda: pump(tcb)
            tcb.on_sendable = lambda space: pump(tcb)
        yield from sender_host.kernel_path(work)
        yield done.wait()

    wall0 = time.perf_counter()
    engine.run_process(start(), name="wallclock-tcp")
    wall = time.perf_counter() - wall0

    elapsed = state["last_byte_at"] - (state["first_byte_at"] or 0.0)
    mbps = (state["received"] * 8.0 / elapsed * MICROSECONDS_PER_SECOND / 1e6
            if elapsed > 0 else 0.0)
    events = engine.events_processed
    packets = state["segments"]
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "flow_cache": _flow_cache_counters(bed.hosts),
        "metrics": _metrics_snapshot(bed),
        "fingerprint": {
            "bytes": state["received"],
            "segments": state["segments"],
            "mbps": mbps,
            "final_now_us": engine.now,
        },
    }


def _rss_kb() -> int:
    """Peak resident set size in KB (0 where unavailable)."""
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, AttributeError, OSError):
        return 0


def _rss_now_kb() -> int:
    """*Current* resident set size in KB (peak as a fallback).

    A forked partition worker inherits its parent's peak, so peak-delta
    accounting would read near zero whenever the parent has already run
    a bigger workload in-process; the worker's own growth needs the
    live VmRSS figure.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return _rss_kb()


def _many_flows_setup(bed, scale: int):
    """Wire the many-flows scenario onto a built bed.

    Shared by the classic single-engine workload below and the
    partitioned shards in :mod:`repro.bench.parallel` (each shard calls
    this on its own partition-local bed with its slice of the flows).
    Returns ``(state, main_factory)``: the mutable flow-counter dict and
    a zero-argument callable producing the main generator.
    """
    from ..sim import Signal
    from ..unixos.sockets import Poller

    n_tcp = scale // 2
    n_udp = scale - n_tcp
    tcp_object = bytes(512)     # the pushed "page"
    udp_request = bytes(16)     # a "frame please" control datagram
    udp_reply = bytes(128)
    stagger_us = 15.0
    tcp_port, udp_port = 80, 5004

    engine = bed.engine
    client_host, server_host = bed.hosts[0], bed.hosts[1]
    client_sockets, server_sockets = bed.sockets[0], bed.sockets[1]
    server_ip = bed.ip(1)

    state = {"tcp_done": 0, "udp_done": 0, "bytes_in": 0, "served": 0,
             "peak_conns": 0, "peak_watched": 0}
    server_ready = Signal(engine)
    all_done = Signal(engine)

    def client_finished() -> None:
        if state["tcp_done"] + state["udp_done"] == scale:
            all_done.fire()

    def tcp_client(index: int):
        yield engine.pooled_timeout(index * stagger_us)
        sock = client_sockets.tcp_socket()
        yield from sock.connect((server_ip, tcp_port))
        received = 0
        while True:
            data = yield from sock.recv()
            if not data:
                break
            received += len(data)
        yield from sock.close()
        state["tcp_done"] += 1
        state["bytes_in"] += received
        client_finished()

    def udp_client(index: int):
        yield engine.pooled_timeout(index * stagger_us)
        sock = client_sockets.udp_socket()
        yield from sock.bind()
        yield from sock.sendto(udp_request, (server_ip, udp_port))
        data, _addr = yield from sock.recvfrom()
        sock.close()
        state["udp_done"] += 1
        state["bytes_in"] += len(data)
        client_finished()

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
            state["peak_watched"] = max(state["peak_watched"],
                                        len(poller._watched))
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
                elif sock is udp:
                    while sock.buffer.items:
                        _data, addr = yield from udp.recvfrom()
                        yield from udp.sendto(udp_reply, addr)
                        state["served"] += 1
                else:  # a pushed child reached EOF: reap it
                    poller.unregister(sock)

    def main():
        engine.process(server(), name="mf-server")
        yield server_ready.wait()
        for index in range(n_tcp):
            engine.process(tcp_client(index), name="mf-tcp-%d" % index)
        for index in range(n_udp):
            engine.process(udp_client(n_tcp + index), name="mf-udp-%d" % index)
        yield all_done.wait()

    return state, main


def _many_flows(scale: int, instrument=None, sim_jobs: int = 1) -> Dict:
    """Scale-out: ``scale`` concurrent client flows against one server.

    One UNIX-model server plays a small HTTP/video origin on a 155 Mb/s
    ATM testbed: a TCP listener that pushes a fixed object at every
    accepted connection, and a UDP port that answers every datagram with
    a fixed reply.  ``scale`` client flows (half TCP, half UDP) open at a
    fixed stagger from a second host, so thousands of connections are in
    flight at once.  The server multiplexes everything through one
    :class:`~repro.unixos.sockets.Poller` in kqueue style -- per-event
    work, not per-registered-socket scans -- which, with the timer wheel
    (per-connection retransmit/delayed-ack/TIME_WAIT timers) and the O(1)
    port allocators, is exactly the machinery this workload stresses.

    Clients deliberately send no TCP request bytes: a segment arriving
    before the server accepts would be consumed by the kernel TCB with no
    reader attached.  Connecting *is* the request (HTTP/0.9 push style).

    ``sim_jobs > 1`` shards the scenario across that many partition
    engines (see :mod:`repro.bench.parallel`).  ``instrument`` is
    ignored on that path: the shards' beds live in worker processes, and
    their metrics snapshots come back merged in the record instead.
    """
    if sim_jobs > 1:
        from .parallel import run_partitioned_many_flows
        return run_partitioned_many_flows(scale, sim_jobs)

    from .testbed import build_testbed

    bed = build_testbed("unix", "atm", deliver_mode="interrupt")
    if instrument is not None:
        instrument(bed)
    engine = bed.engine
    state, main = _many_flows_setup(bed, scale)

    rss_before_kb = _rss_kb()
    wall0 = time.perf_counter()
    engine.run_process(main(), name="wallclock-many-flows")
    wall = time.perf_counter() - wall0
    rss_grew_kb = max(0, _rss_kb() - rss_before_kb)

    events = engine.events_processed
    packets = state["served"] * 2  # at least one frame each way per flow
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        # Host-side: peak-RSS growth across the run amortized per flow.
        # Best effort (0 when an earlier workload already set the peak);
        # never part of the fingerprint.
        "per_flow_kb": rss_grew_kb / scale,
        "metrics": _metrics_snapshot(bed),
        "fingerprint": {
            "flows": scale,
            "tcp_done": state["tcp_done"],
            "udp_done": state["udp_done"],
            "bytes_in": state["bytes_in"],
            "peak_conns": state["peak_conns"],
            "peak_watched": state["peak_watched"],
            "final_now_us": engine.now,
        },
    }


#: Flows one client host can source: the ephemeral UDP port range is
#: 32768..65535 (~32767 ports), kept under ~30k for slack against the
#: TCP side's separate allocator and retries.
_MEGA_FLOWS_PER_HOST = 30_000


def _mega_client_hosts(scale: int) -> int:
    """Client hosts needed to give ``scale`` flows enough port space."""
    return max(1, -(-scale // _MEGA_FLOWS_PER_HOST))


def _mega_flows_setup(bed, scale: int, lifecycle=None):
    """Wire the mega-flows scenario onto a built bed.

    The memory-pressure sibling of :func:`_many_flows_setup`: ``scale``
    flows (every 8th TCP, the rest UDP request/reply) arrive open-loop at
    a 2 us stagger from however many client hosts the port space needs,
    and the server *defers every reply until all ``scale`` flows have
    arrived* -- so peak live-flow concurrency equals ``scale`` by
    construction, which is what makes ``per_flow_kb`` an honest
    steady-state cost and not an artifact of flows retiring early.
    Returns ``(state, main_factory)`` like its sibling; shared by the
    classic workload and the partitioned shards.

    ``lifecycle`` (a :class:`repro.obs.slo.RequestLifecycle`) is the SLO
    harness's hook: each client flow becomes one request, begun at its
    open-loop departure and ended at completion.  Lifecycles only read
    ``engine.now``, so the workload fingerprint is identical either way.
    """
    from ..sim import Signal
    from ..unixos.sockets import Poller

    tcp_object = bytes(256)     # the pushed "page"
    udp_request = bytes(16)
    udp_reply = bytes(64)
    stagger_us = 2.0
    tcp_port, udp_port = 80, 5004

    engine = bed.engine
    n_clients = len(bed.hosts) - 1
    server_host = bed.hosts[-1]
    server_sockets = bed.sockets[-1]
    server_ip = bed.ip(n_clients)

    # Both traffic phases are wire-rate bursts -- the open-loop request
    # front inbound to the server, the deferred reply sweep outbound and
    # back into each client host.  The default 64-entry NIC rings drop
    # under either burst, and a dropped datagram deadlocks its open-loop
    # client (UDP carries no retransmit), so provision every ring for
    # the full flow count.
    for nic in bed.nics:
        nic.provision_rings(scale)

    state = {"tcp_done": 0, "udp_done": 0, "bytes_in": 0, "served": 0,
             "peak_conns": 0, "peak_watched": 0}
    server_ready = Signal(engine)
    all_done = Signal(engine)

    def client_finished() -> None:
        if state["tcp_done"] + state["udp_done"] == scale:
            all_done.fire()

    def tcp_client(index: int, sockets):
        yield engine.pooled_timeout(index * stagger_us)
        request = None if lifecycle is None else lifecycle.begin("mega_tcp")
        sock = sockets.tcp_socket()
        yield from sock.connect((server_ip, tcp_port))
        received = 0
        while True:
            data = yield from sock.recv()
            if not data:
                break
            received += len(data)
        yield from sock.close()
        if request is not None:
            lifecycle.end(request)
        state["tcp_done"] += 1
        state["bytes_in"] += received
        client_finished()

    def udp_client(index: int, sockets):
        yield engine.pooled_timeout(index * stagger_us)
        request = None if lifecycle is None else lifecycle.begin("mega_udp")
        sock = sockets.udp_socket()
        yield from sock.bind()
        yield from sock.sendto(udp_request, (server_ip, udp_port))
        data, _addr = yield from sock.recvfrom()
        sock.close()
        if request is not None:
            lifecycle.end(request)
        state["udp_done"] += 1
        state["bytes_in"] += len(data)
        client_finished()

    def server():
        listener = server_sockets.tcp_socket()
        yield from listener.listen(tcp_port, backlog=scale)
        udp = server_sockets.udp_socket()
        yield from udp.bind(udp_port)
        # At a 2 us open-loop stagger requests land faster than the
        # server loop drains under load spikes; the default 64 KB socket
        # buffer would silently drop datagrams (deadlocking their
        # clients), so give it room for every request plus headroom.
        udp.buffer.limit = max(udp.buffer.limit, scale * 64)
        poller = Poller(server_host)
        poller.register(listener)
        poller.register(udp)
        server_ready.fire()
        connections = server_sockets.stack.tcp.connections
        pending_tcp = []        # accepted children awaiting their push
        pending_udp = []        # datagram sources awaiting their reply
        while len(pending_tcp) + len(pending_udp) < scale:
            ready = yield from poller.wait()
            state["peak_conns"] = max(state["peak_conns"], len(connections))
            state["peak_watched"] = max(state["peak_watched"],
                                        len(poller._watched))
            for sock in ready:
                if sock is listener:
                    while sock.accept_queue:
                        child = yield from listener.accept()
                        pending_tcp.append(child)
                elif sock is udp:
                    while sock.buffer.items:
                        _data, addr = yield from udp.recvfrom()
                        pending_udp.append(addr)
        # Every flow is now live at once -- the measured peak.  Answer
        # them all (arrival order: deterministic) and let them retire.
        state["peak_conns"] = max(state["peak_conns"], len(connections))
        for child in pending_tcp:
            yield from child.send(tcp_object)
            yield from child.close()
            state["served"] += 1
        for addr in pending_udp:
            yield from udp.sendto(udp_reply, addr)
            state["served"] += 1

    def main():
        engine.process(server(), name="mega-server")
        yield server_ready.wait()
        for index in range(scale):
            # Contiguous blocks of flows per client host, sized to fit
            # each host's ephemeral port space.
            sockets = bed.sockets[index * n_clients // scale]
            if index % 8 == 0:
                engine.process(tcp_client(index, sockets),
                               name="mega-tcp-%d" % index)
            else:
                engine.process(udp_client(index, sockets),
                               name="mega-udp-%d" % index)
        yield all_done.wait()

    return state, main


def _mega_flows(scale: int, instrument=None, sim_jobs: int = 1) -> Dict:
    """Memory-scale scale-out: >= 50k concurrent flows held live at once.

    The ``many_flows`` shape pushed to the ROADMAP's 100k-flow regime:
    mostly-UDP traffic (every 8th flow TCP) arriving open-loop at a 2 us
    stagger across as many client hosts as the ephemeral port space
    needs, against one server that withholds every reply until all
    ``scale`` flows have arrived.  ``per_flow_kb`` is the headline
    number: with every flow live simultaneously, peak-RSS growth divided
    by ``scale`` is the real per-flow footprint of the slotted TCBs,
    sockets, timers, and scheduler entries.

    Not part of the default wall-clock suite (see
    :data:`ON_DEMAND_WORKLOADS`): run it by name or through
    ``--parallel-curve``, which makes it the ``BENCH_parallel.json``
    headline row.
    """
    if sim_jobs > 1:
        from .parallel import run_partitioned_workload
        return run_partitioned_workload("mega_flows", scale, sim_jobs)

    from .testbed import build_testbed

    bed = build_testbed("unix", "atm", deliver_mode="interrupt",
                        n_hosts=_mega_client_hosts(scale) + 1)
    if instrument is not None:
        instrument(bed)
    engine = bed.engine
    state, main = _mega_flows_setup(bed, scale)

    rss_before_kb = _rss_kb()
    wall0 = time.perf_counter()
    engine.run_process(main(), name="wallclock-mega-flows")
    wall = time.perf_counter() - wall0
    rss_grew_kb = max(0, _rss_kb() - rss_before_kb)

    events = engine.events_processed
    packets = state["served"] * 2
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "per_flow_kb": rss_grew_kb / scale,
        "metrics": _metrics_snapshot(bed),
        "fingerprint": {
            "flows": scale,
            "tcp_done": state["tcp_done"],
            "udp_done": state["udp_done"],
            "bytes_in": state["bytes_in"],
            "peak_conns": state["peak_conns"],
            "peak_watched": state["peak_watched"],
            "final_now_us": engine.now,
        },
    }


_FABRIC_K = 4
_FABRIC_RX_PORT = 9000
_FABRIC_TX_PORT = 9001


def _fabric_fat_tree_setup(bed, scale: int, lifecycle=None):
    """Wire the open-loop fabric scenario onto a built fat-tree bed.

    Every edge host streams ``scale`` UDP datagrams to its image in the
    pod ``k/2`` away -- the same (edge, slot), pod ``(p + k/2) % k`` --
    so every flow crosses the core tier (and, under ``--sim-jobs``, the
    partition boundary).  Departures follow a per-host
    :class:`~repro.fabric.traffic.OpenLoopSource` (even global host ids
    Poisson, odd Pareto; seeds derived from the host id), so the traffic
    matrix is a pure function of (k, hosts_per_edge, scale).  Returns
    ``(state, main_factory)`` like the other setup helpers; shared by
    the classic workload and the partitioned shards.

    With ``lifecycle`` (a :class:`repro.obs.slo.RequestLifecycle`) each
    datagram becomes one request, begun at its open-loop departure and
    ended when the far edge delivers it.  Matching an end to its begin
    needs a (sender, sequence) tag on the wire, so the payload prefix
    widens from 4 to 8 bytes in that mode -- the lifecycle leg of the
    SLO harness carries its own fingerprint and never shares one with
    the plain workload, which keeps the 4-byte format bit-for-bit.
    """
    from ..core.manager import Credential
    from ..fabric.traffic import OpenLoopSource
    from ..lang.ephemeral import ephemeral
    from ..net.headers import ip_aton
    from ..sim import Signal

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
            yield engine.pooled_timeout(gap_us)
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


def _fabric_switch_totals(bed) -> Dict:
    totals = {"switch_forwarded": 0, "switch_dropped": 0, "ecmp": 0}
    for switch in getattr(bed, "switches", ()):
        totals["switch_forwarded"] += switch.pipeline_forwarded
        totals["switch_dropped"] += switch.pipeline_dropped
        totals["ecmp"] += switch.ecmp_decisions
    return totals


def _fabric_fat_tree(scale: int, instrument=None, sim_jobs: int = 1) -> Dict:
    """Match-action fabric: open-loop UDP across a k=4 fat-tree.

    8 spin hosts on 20 programmed :class:`~repro.fabric.switch.
    SwitchHost` stages (LPM tables, seeded ECMP up the tree), every flow
    core-crossing by construction.  ``scale`` is datagrams per host.
    The fingerprint folds in per-switch forwarding totals, so a single
    misrouted or double-counted frame anywhere in the fabric fails the
    determinism gate.

    On-demand like ``mega_flows``: run it by name, or partitioned via
    ``--sim-jobs N`` (N must divide the pod count) where it is gated on
    exact equality against the serial-executor oracle.
    """
    if sim_jobs > 1:
        from .parallel import run_partitioned_workload
        return run_partitioned_workload("fabric_fat_tree", scale, sim_jobs)

    from ..fabric.topology import fat_tree

    bed = fat_tree(_FABRIC_K)
    if instrument is not None:
        instrument(bed)
    engine = bed.engine
    state, main = _fabric_fat_tree_setup(bed, scale)

    wall0 = time.perf_counter()
    engine.run_process(main(), name="wallclock-fabric")
    wall = time.perf_counter() - wall0

    events = engine.events_processed
    packets = state["received"]
    fingerprint = {
        "sent": state["sent"],
        "received": state["received"],
        "bytes": state["bytes"],
        "final_now_us": engine.now,
    }
    fingerprint.update(_fabric_switch_totals(bed))
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "metrics": _metrics_snapshot(bed),
        "fingerprint": fingerprint,
    }


#: name -> (workload fn, quick scale, full scale).  Scales are part of the
#: fingerprint contract: changing them changes the expected fingerprints.
WORKLOADS: Dict[str, tuple] = {
    "dispatcher_micro": (_dispatcher_micro, 2_000, 20_000),
    "udp_pingpong": (_udp_pingpong, 60, 400),
    "tcp_bulk": (_tcp_bulk, 100_000, 400_000),
    "many_flows": (_many_flows, 2_000, 6_000),
    "mega_flows": (_mega_flows, 50_000, 100_000),
    "fabric_fat_tree": (_fabric_fat_tree, 40, 200),
}

#: Workloads excluded from the default suite / fingerprint sweep: big
#: enough that they run only when named explicitly (``--wallclock``
#: budgets and the committed BENCH_wallclock.json schema stay unchanged).
ON_DEMAND_WORKLOADS = ("mega_flows", "fabric_fat_tree")

#: Workloads whose quick scale is itself huge warm up at a smaller one
#: (the warmup pass exists to heat imports/codegen/pools, not to pay the
#: full workload twice).
_WARMUP_SCALE: Dict[str, int] = {"mega_flows": 2_000, "fabric_fat_tree": 10}

#: workloads with a SPIN dispatcher in the loop: exactly these behave
#: differently under ``REPRO_FLOW_CACHE`` and get a same-run oracle
#: twin.  ``many_flows`` runs the UNIX model, where the rungs are
#: indistinguishable.
COMPILED_WORKLOADS = ("dispatcher_micro", "tcp_bulk", "udp_pingpong")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def host_fingerprint() -> Dict[str, str]:
    """Identify the machine a report was produced on.

    Wall-clock throughput is a property of (code, host) -- the committed
    baseline's events/sec mean nothing on different hardware.  Recording
    the host lets :func:`compare_to_baseline` label cross-machine drift
    as informational instead of silently warning about it.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
    }


#: environment overrides per benchmark mode.  ``uncached`` is the
#: reference oracle -- every raise the interpreted linear scan -- rerun
#: in the same process on the same machine, which is the only
#: comparison stable enough to gate on.
_MODE_ENV: Dict[str, Dict[str, str]] = {
    "current": {},
    "uncached": {"REPRO_FLOW_CACHE": "0"},
}


def run_workload(name: str, quick: bool = False,
                 repeats: int = 1, instrument=None,
                 mode: str = "current", sim_jobs: int = 1) -> Dict:
    """Run one workload; returns its metrics + fingerprint record.

    With ``repeats > 1`` the best (fastest) wall-clock repeat is reported
    -- standard practice for throughput numbers -- and every repeat's
    fingerprint is checked for bit-identical equality, which is the
    in-process half of the determinism guard.

    ``instrument`` is a callback invoked with the freshly built testbed
    before the timed region starts -- the hook ``repro.obs`` uses to
    attach CPU profilers and span tracers.  It must not perturb
    simulated time (the fingerprint equality check enforces this).

    ``mode`` selects a rung of the bit-exactness ladder via
    :data:`_MODE_ENV` environment overrides, applied around the workload
    (each run builds a fresh testbed, so the flow-cache switches are
    read under the override) and restored afterwards.

    ``sim_jobs > 1`` runs the workload sharded over that many simulation
    partitions (only ``many_flows`` supports sharding).  Partitioned
    records carry a ``partitions`` fingerprint field: they are compared
    against the serial executor at equal ``sim_jobs``
    (``REPRO_SIM_PARALLEL=0``), never against the classic record.
    ``instrument`` is ignored in this mode -- the testbeds live in
    worker processes; the merged ``metrics`` snapshot still rolls up.
    """
    fn, quick_scale, full_scale = WORKLOADS[name]
    if sim_jobs > 1 and name not in ("many_flows", "mega_flows",
                                     "fabric_fat_tree"):
        raise ValueError(
            "sim_jobs > 1 is only supported by the many_flows, mega_flows "
            "and fabric_fat_tree workloads, not %r" % name)
    scale = quick_scale if quick else full_scale
    workload_kwargs = {"sim_jobs": sim_jobs} if sim_jobs > 1 else {}
    overrides = _MODE_ENV[mode]
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    best: Optional[Dict] = None
    try:
        # One discarded warmup pass at quick scale: imports, codegen
        # compile() calls, and allocator pools all warm up outside the
        # timed region.  Without it the first workload of a suite runs
        # cold while legs later in the same process run warm -- a
        # systematic bias that once showed a quick-scale micro-benchmark
        # at 0.79x against its own same-run twin.  Uninstrumented: the
        # warmup bed is thrown away and must not pollute a profiler.
        fn(_WARMUP_SCALE.get(name, quick_scale), instrument=None)
        for _ in range(max(1, repeats)):
            # Quiesce the cyclic collector around the timed region (pyperf
            # does the same): GC pauses land randomly and are the dominant
            # run-to-run noise source.  Simulated time cannot observe this.
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                record = fn(scale, instrument=instrument, **workload_kwargs)
            finally:
                if gc_was_enabled:
                    gc.enable()
            if best is not None and record["fingerprint"] != best["fingerprint"]:
                raise AssertionError(
                    "workload %r is nondeterministic: fingerprint %r != %r"
                    % (name, record["fingerprint"], best["fingerprint"]))
            if best is None or record["wall_s"] < best["wall_s"]:
                best = record
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    best["name"] = name
    best["scale"] = scale
    best["quick"] = quick
    return best


def run_suite(quick: bool = False, repeats: int = 1,
              names=None, jobs: int = 1, sim_jobs: int = 1) -> Dict:
    """Run every workload; returns the full report dict.

    ``jobs > 1`` shards the workloads across worker processes (see
    ``repro.bench.runner``); fingerprints -- and therefore the pass/fail
    outcome -- are identical for any jobs count.

    Every workload whose flow cache compiled generated code is rerun
    under ``REPRO_FLOW_CACHE=0`` -- the interpreted linear scan -- on
    this machine in this run.  That leg is both the oracle (its
    fingerprints must match the compiled run byte-for-byte) and the
    denominator of the one speed ratio stable enough to *fail* on (see
    :func:`compare_to_baseline`).

    ``sim_jobs > 1`` additionally runs partitioned ``many_flows`` legs
    (serial oracle + parallel executor at ``sim_jobs`` partitions) and
    attaches them as the report's ``parallel`` section.  The classic
    workload records above are not affected -- the partitioned leg is
    extra, gated on exact equality with its own serial oracle.
    """
    from ..spin.flowcache import flow_cache_enabled
    from .runner import run_wallclock_suite
    workload_names = list(names or sorted(
        name for name in WORKLOADS if name not in ON_DEMAND_WORKLOADS))
    # Only workloads that will actually run generated code have a
    # meaningful interpreted twin.  Statically selected (COMPILED_
    # WORKLOADS x the environment switch), so the payload list -- and
    # the report -- is deterministic, and skipped entirely when the
    # whole suite already runs interpreted.
    gated = [name for name in workload_names
             if name in COMPILED_WORKLOADS and flow_cache_enabled()]
    workloads, legs, parallel_legs = run_wallclock_suite(
        workload_names, gated, quick=quick, repeats=repeats, jobs=jobs,
        sim_jobs=sim_jobs)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generated_by": "python -m repro.bench --wallclock",
        "quick": quick,
        "host": host_fingerprint(),
        "workloads": workloads,
    }
    if legs:
        report["oracle"] = {
            name: {key: leg[key] for key in
                   ("wall_s", "events_per_sec", "fingerprint")}
            for name, leg in legs.items()
        }
    if parallel_legs:
        # "workload" names the headline (back-compat with schema 6
        # readers); each leg carries its own "workload" field.
        report["parallel"] = {
            "workload": "many_flows",
            "workloads": sorted({leg["workload"] for leg in parallel_legs}),
            "legs": parallel_legs,
        }
    baseline = load_baseline()
    report["comparison"] = compare_to_baseline(report, baseline or {})
    return report


def fingerprints_only(quick: bool = True) -> Dict[str, Dict]:
    """Just the simulated-time fingerprints (for the determinism tests)."""
    return {name: run_workload(name, quick=quick)["fingerprint"]
            for name in sorted(WORKLOADS)
            if name not in ON_DEMAND_WORKLOADS}


# ---------------------------------------------------------------------------
# baseline comparison (same-run regressions fail; cross-machine drift warns)
# ---------------------------------------------------------------------------

def load_baseline(path: str = None) -> Optional[Dict]:
    path = path or BASELINE_PATH
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def compare_to_baseline(report: Dict, baseline: Dict,
                        slowdown_warn: Optional[float] = None,
                        slowdown_fail: Optional[float] = None) -> Dict:
    """Compare a fresh report against its oracle leg and the baseline.

    Two comparisons with deliberately different teeth:

    * **Same-run oracle gate (fails).**  When the report carries an
      ``oracle`` leg (:func:`run_suite`), its fingerprints must match
      the current run byte-for-byte, and events/sec below ``1 -
      slowdown_fail`` of the leg is an *error* -- same machine, same
      process, same minute, so a regression there is the code, not the
      host.  ``slowdown_fail`` defaults to ``REPRO_BENCH_FAIL_PCT``
      (20%).  The committed-baseline check used to warn at 34-43% on a
      different machine while reporting ``ok``; this ratio is the one a
      perf change actually moves.
    * **Committed-baseline comparison (informs).**  Fingerprint
      mismatches are still *errors* -- simulated time is deterministic
      and machine-independent -- but events/sec versus the committed
      numbers only *warns* beyond ``slowdown_warn``
      (``REPRO_BENCH_WARN_PCT``, default 20), and when the report and
      baseline ``host`` fingerprints differ the warning says so: the
      numbers were measured on different hardware and carry no signal.

    Rows also record ``events_per_sec_vs_oracle`` (same-run, gated),
    ``events_per_sec_vs_baseline`` and
    ``events_per_sec_vs_committed_prechange`` (informational).
    """
    if slowdown_warn is None:
        from .regression import bench_warn_pct
        slowdown_warn = bench_warn_pct() / 100.0
    if slowdown_fail is None:
        from .regression import bench_fail_pct
        slowdown_fail = bench_fail_pct() / 100.0
    mode = "quick" if report["quick"] else "full"
    base_workloads = baseline.get(mode, {}).get("workloads", {})
    committed_prechange = baseline.get(mode, {}).get("prechange", {})
    oracle_leg = report.get("oracle", {})
    baseline_host = baseline.get("host")
    cross_machine = baseline_host is None or baseline_host != report.get("host")
    host_note = (" (informational: baseline recorded on a different or "
                 "unknown host)" if cross_machine else "")
    rows = {}
    for name, record in report["workloads"].items():
        row = {"workload": name, "ok": True, "warnings": [], "errors": []}
        rows[name] = row
        # -- same-run oracle leg: the hard gate -------------------------
        twin = oracle_leg.get(name)
        if twin is not None:
            if record["fingerprint"] != twin["fingerprint"]:
                row["ok"] = False
                row["errors"].append(
                    "compiled/interpreted divergence: fingerprint %r != "
                    "REPRO_FLOW_CACHE=0 leg %r"
                    % (record["fingerprint"], twin["fingerprint"]))
            if twin.get("events_per_sec"):
                ratio = record["events_per_sec"] / twin["events_per_sec"]
                row["events_per_sec_vs_oracle"] = ratio
                if ratio < 1.0 - slowdown_fail:
                    row["ok"] = False
                    row["errors"].append(
                        "events/sec is %.0f%% of the same-run oracle "
                        "leg (fail threshold %.0f%%)"
                        % (100 * ratio, 100 * (1.0 - slowdown_fail)))
        # -- committed baseline: determinism hard, speed informational --
        base = base_workloads.get(name)
        if base is None:
            row["warnings"].append("no committed baseline for %r" % name)
            continue
        if record["fingerprint"] != base["fingerprint"]:
            row["ok"] = False
            row["errors"].append(
                "simulated-time fingerprint drifted: %r != baseline %r"
                % (record["fingerprint"], base["fingerprint"]))
        if base.get("events_per_sec"):
            ratio = record["events_per_sec"] / base["events_per_sec"]
            row["events_per_sec_vs_baseline"] = ratio
            if ratio < 1.0 - slowdown_warn:
                row["warnings"].append(
                    "events/sec is %.0f%% of committed baseline (warn "
                    "threshold %.0f%%)%s"
                    % (100 * ratio, 100 * (1.0 - slowdown_warn), host_note))
        pre = committed_prechange.get(name)
        if pre and pre.get("events_per_sec"):
            row["events_per_sec_vs_committed_prechange"] = (
                record["events_per_sec"] / pre["events_per_sec"])
    return rows


def write_report(report: Dict, path: str = None) -> str:
    """Write the report JSON at the repo root; returns the path."""
    path = path or os.path.join(_REPO_ROOT, REPORT_FILENAME)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
