"""SLO harness: open-loop tail latency, gated like the wall-clock suite.

``python -m repro.bench --latency`` runs a small matrix of open-loop
workloads at several offered loads, extracts p50/p99/p999 from the
request lifecycles (:mod:`repro.obs.slo`), and writes
``BENCH_latency.json``.  Three design decisions carry the honesty of the
wall-clock gate (PR 6) over to latency:

* **Percentile fingerprints are integers.**  Every leg's p50/p99/p999 is
  stated in simulated nanoseconds; they are pure functions of the code
  and the seeds, byte-identical across hosts, reruns and ``--jobs``
  values.  Drift against the committed baseline is an *error*.  Wall
  seconds per leg are host measurements and only ever *warn*
  (``REPRO_BENCH_WARN_PCT``), with the cross-machine caveat spelled out.
* **Every open-loop leg carries a closed-loop twin** run in the same
  process from the same arrival draws.  The twin self-clocks (a request
  departs one drawn gap after the previous *reply*), so it cannot queue
  behind itself; the open leg keeps the drawn schedule regardless of
  completions, which is what users actually do to a server.  The
  ``tail_gap_p99_ns`` between them is the report's headline: mean load
  is matched by construction, the tails are not.
* **Decomposition probes reconcile bit-exactly.**  Closed-loop probes
  run under a :class:`~repro.obs.slo.SloTracker` and every completed
  request must satisfy ``sum(components) == total_ns`` in integer
  nanoseconds -- an error otherwise, not a warning.  The same udp leg is
  rerun on both flow-cache rungs (:data:`~repro.bench.wallclock.
  _MODE_ENV`) and the fingerprints must agree across them.

Legs (quick request counts in parentheses): ``udp_echo`` at mean gaps of
2000/800/400 us on the spin/ethernet bed (150), ``tcp_objects`` -- a
connect/fetch/close per request against a serially-serving daemon -- at
5000/2000 us on the unix/atm bed (60), the ``fabric_fat_tree`` open-loop
workload at its own built-in load (no closed twin: its arrival schedule
is the workload), and, under ``--full``, a ``mega_flows``-scale leg
whose deliberately withheld replies make every request's latency a queue
measurement.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Dict, List, Optional, Tuple

from ..obs.slo import RequestLifecycle, SloTracker

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "REPORT_FILENAME",
    "BASELINE_PATH",
    "LEG_LOADS",
    "PROBES",
    "leg_names",
    "run_leg",
    "run_probe",
    "run_latency_suite",
    "load_baseline",
    "compare_to_baseline",
    "write_report",
    "write_baseline",
]

#: Schema 2: ``rungs.fingerprints`` carries ``current`` and ``uncached``
#: (the ``prechange`` rung is gone); percentile fingerprints unchanged.
REPORT_SCHEMA_VERSION = 2
REPORT_FILENAME = "BENCH_latency.json"

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
BASELINE_PATH = os.path.join(_REPO_ROOT, "benchmarks",
                             "latency_baseline.json")

#: offered loads per open-loop workload: mean inter-departure gap (us).
#: The spin/ethernet echo RTT is ~570 us, so the 400 us leg genuinely
#: overlaps requests; the tcp legs sit against a ~1.5 ms serial service.
LEG_LOADS: Dict[str, Tuple[float, ...]] = {
    "udp_echo": (2000.0, 800.0, 400.0),
    "tcp_objects": (5000.0, 2000.0),
}

#: requests per leg, (quick, full).
_LEG_REQUESTS = {"udp_echo": (150, 600), "tcp_objects": (60, 240)}

#: datagrams per host for the fabric leg, (quick, full).
_FABRIC_SCALE = (20, 100)

#: flows for the --full mega leg (the wall-clock quick scale: its replies
#: are withheld until every flow has arrived, so latency grows with the
#: flow count by construction -- 50k is already a worst-case tail).
_MEGA_SCALE = 50_000

#: drain slack appended to the last scheduled departure (us).
_SLACK_US = 200_000.0

#: closed-loop decomposition probes: trips, (quick, full).
_PROBE_TRIPS = (10, 20)
PROBES = ("udp_clean", "tcp_clean", "tcp_impaired")

#: bursty (Gilbert-Elliott) loss for the impaired probe; seed fixed so
#: the stall decomposition is replayable.
_IMPAIRED_SEED = 0x51CA
_PROBE_HORIZON_US = 60_000_000.0

_ECHO_PORT = 7007
_TCP_PORT = 8090
_TCP_OBJECT = bytes(2048)


def _source_seed(name: str) -> int:
    """Stable per-leg arrival seed (independent of runner task seeds)."""
    return zlib.crc32(("slo:" + name).encode("utf-8")) & 0x7FFFFFFF


def _schedule(name: str, n: int):
    """The leg's arrival draws: (gap_us, size) rows, a pure function of
    the leg name -- both twins of a leg replay the same list."""
    from ..fabric.traffic import OpenLoopSource
    source = OpenLoopSource(seed=_source_seed(name), arrival="poisson",
                            mean_gap_us=_gap_of(name), size_dist="fixed",
                            fixed_size=64, min_size=32, max_size=1400)
    return source.schedule(n)


def _gap_of(name: str) -> float:
    return float(name.split("@g", 1)[1])


def _workload_of(name: str) -> str:
    return name.split("@", 1)[0]


def leg_names(quick: bool = True) -> List[str]:
    names = ["%s@g%d" % (workload, gap)
             for workload in ("udp_echo", "tcp_objects")
             for gap in LEG_LOADS[workload]]
    names.append("fabric_fat_tree")
    if not quick:
        names.append("mega_flows")
    return names


# ---------------------------------------------------------------------------
# open-loop legs and their closed twins
# ---------------------------------------------------------------------------

def _record(lifecycle: RequestLifecycle, kind: str, n: int) -> Dict:
    """One side's percentile record: simulated-time integers only."""
    record = dict(lifecycle.percentiles_ns(kind))
    record["requested"] = n
    record["completed"] = len(lifecycle.samples_ns(kind))
    record["still_open"] = lifecycle.open_requests
    return record


def _udp_echo_leg(name: str, quick: bool, closed: bool = True) -> Dict:
    """Open-loop UDP echo against the spin/ethernet bed, plus the twin.

    The sender follows the drawn schedule; each datagram carries its
    sequence number and the far extension echoes it back, so the client
    handler can end the matching request however many are in flight.
    """
    n = _LEG_REQUESTS["udp_echo"][0 if quick else 1]
    plan = _schedule(name, n)
    wall0 = time.perf_counter()
    open_side = _udp_echo_side(plan, closed=False)
    leg = {
        "workload": "udp_echo",
        "mean_gap_us": _gap_of(name),
        "open": open_side,
    }
    if closed:
        closed_side = _udp_echo_side(plan, closed=True)
        leg["closed"] = closed_side
        leg["tail_gap_p99_ns"] = open_side["p99_ns"] - closed_side["p99_ns"]
    leg["wall_s"] = time.perf_counter() - wall0
    return leg


def _udp_echo_side(plan, closed: bool) -> Dict:
    from ..core.manager import Credential
    from ..lang.ephemeral import ephemeral
    from ..sim import Signal
    from .testbed import build_testbed

    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    engine = bed.engine
    client_stack, server_stack = bed.stacks
    client_host = bed.hosts[0]
    # Open-loop UDP has no retransmit: a ring drop parks its request
    # forever and, worse, nondeterministically under load.  Provision
    # for the whole schedule.
    for nic in bed.nics:
        nic.provision_rings(max(256, len(plan)))

    lifecycle = RequestLifecycle(engine)
    pending: Dict[int, object] = {}
    reply_seen = Signal(engine)
    server_ep = None

    @ephemeral
    def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        payload = bytes(m.to_bytes()[off:])
        server_ep.send(payload, src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        data = bytes(m.to_bytes()[off:])
        # int.from_bytes is not on the ephemeral safe list; shifts are.
        seq = (data[0] << 24) | (data[1] << 16) | (data[2] << 8) | data[3]
        request = pending.pop(seq, None)
        if request is not None:
            lifecycle.end(request)
        reply_seen.fire()

    server_ep = server_stack.udp_manager.bind(
        Credential("slo-echo"), _ECHO_PORT, server_handler, mode="inline")
    client_ep = client_stack.udp_manager.bind(
        Credential("slo-client"), _ECHO_PORT + 1, client_handler,
        mode="inline")

    def sender():
        for seq, (gap_us, size) in enumerate(plan):
            yield engine.pooled_timeout(gap_us)
            waiter = reply_seen.wait() if closed else None
            pending[seq] = lifecycle.begin("udp_echo", seq)
            payload = seq.to_bytes(4, "big") + bytes(size - 4)
            yield from client_host.kernel_path(
                lambda data=payload: client_ep.send(data, bed.ip(1),
                                                    _ECHO_PORT))
            if waiter is not None:
                yield waiter

    if closed:
        # Self-clocked: a schedule-time horizon does not apply, and the
        # clean bed cannot lose the reply the sender blocks on, so the
        # sender process itself bounds the run.
        engine.run_process(sender(), name="slo-udp-sender")
    else:
        engine.process(sender(), name="slo-udp-sender")
        horizon = sum(gap for gap, _size in plan) + _SLACK_US
        engine.run(until=horizon)
    return _record(lifecycle, "udp_echo", len(plan))


def _tcp_objects_leg(name: str, quick: bool, closed: bool = True) -> Dict:
    """Open-loop object fetches against a serially-serving TCP daemon."""
    n = _LEG_REQUESTS["tcp_objects"][0 if quick else 1]
    plan = _schedule(name, n)
    wall0 = time.perf_counter()
    open_side = _tcp_objects_side(plan, closed=False)
    leg = {
        "workload": "tcp_objects",
        "mean_gap_us": _gap_of(name),
        "open": open_side,
    }
    if closed:
        closed_side = _tcp_objects_side(plan, closed=True)
        leg["closed"] = closed_side
        leg["tail_gap_p99_ns"] = open_side["p99_ns"] - closed_side["p99_ns"]
    leg["wall_s"] = time.perf_counter() - wall0
    return leg


def _tcp_objects_side(plan, closed: bool) -> Dict:
    from .testbed import build_testbed

    bed = build_testbed("unix", "atm", deliver_mode="interrupt")
    engine = bed.engine
    client_sockets, server_sockets = bed.sockets
    server_ip = bed.ip(1)
    lifecycle = RequestLifecycle(engine)

    def server():
        listener = server_sockets.tcp_socket()
        yield from listener.listen(_TCP_PORT, backlog=len(plan))
        # Serve one connection at a time: the serial service discipline
        # is what turns an offered-load burst into a visible tail.
        while True:
            child = yield from listener.accept()
            yield from child.send(_TCP_OBJECT)
            yield from child.close()

    def fetch(seq: int):
        request = lifecycle.begin("tcp_object", seq)
        sock = client_sockets.tcp_socket()
        yield from sock.connect((server_ip, _TCP_PORT))
        while True:
            data = yield from sock.recv()
            if not data:
                break
        yield from sock.close()
        lifecycle.end(request)

    def spawner():
        for seq, (gap_us, _size) in enumerate(plan):
            yield engine.pooled_timeout(gap_us)
            if closed:
                yield from fetch(seq)
            else:
                engine.process(fetch(seq), name="slo-tcp-%d" % seq)

    engine.process(server(), name="slo-tcp-server")
    if closed:
        # Self-clocked and lossless: the spawner fetches sequentially,
        # so its own completion bounds the run.
        engine.run_process(spawner(), name="slo-tcp-spawner")
    else:
        engine.process(spawner(), name="slo-tcp-spawner")
        horizon = sum(gap for gap, _size in plan) + _SLACK_US
        engine.run(until=horizon)
    return _record(lifecycle, "tcp_object", len(plan))


def _fabric_leg(quick: bool) -> Dict:
    """The fat-tree open-loop workload, instrumented per datagram.

    No closed twin: the workload's arrival schedule *is* the experiment
    (per-host Poisson/Pareto sources into a shared core tier), and
    self-clocking it would measure a different fabric.
    """
    from ..fabric.topology import fat_tree
    from .wallclock import _FABRIC_K, _fabric_fat_tree_setup

    scale = _FABRIC_SCALE[0 if quick else 1]
    wall0 = time.perf_counter()
    bed = fat_tree(_FABRIC_K)
    lifecycle = RequestLifecycle(bed.engine)
    state, main = _fabric_fat_tree_setup(bed, scale, lifecycle=lifecycle)
    bed.engine.run_process(main(), name="slo-fabric")
    record = _record(lifecycle, "fabric_dgram", state["sent"])
    return {
        "workload": "fabric_fat_tree",
        "mean_gap_us": 40.0,
        "open": record,
        "wall_s": time.perf_counter() - wall0,
    }


def _mega_leg(quick: bool) -> Dict:
    """The mega_flows leg: every reply withheld until all flows arrive.

    Request latency here is dominated by the server's deliberate
    convoy, so the percentiles profile the simulator's queueing fabric
    at 50k concurrent requests -- the ROADMAP's scale rung expressed as
    a tail.  ``--full`` (the weekly CI run) only: it costs real wall
    time.
    """
    from .testbed import build_testbed
    from .wallclock import _mega_client_hosts, _mega_flows_setup

    scale = _MEGA_SCALE
    wall0 = time.perf_counter()
    bed = build_testbed("unix", "atm", deliver_mode="interrupt",
                        n_hosts=_mega_client_hosts(scale) + 1)
    engine = bed.engine
    lifecycle = RequestLifecycle(engine)
    state, main = _mega_flows_setup(bed, scale, lifecycle=lifecycle)
    engine.run_process(main(), name="slo-mega")
    record = {}
    for kind in ("mega_udp", "mega_tcp"):
        record[kind] = _record(lifecycle, kind, scale)
    return {
        "workload": "mega_flows",
        "mean_gap_us": 2.0,
        "open": record["mega_udp"],
        "open_tcp": record["mega_tcp"],
        "wall_s": time.perf_counter() - wall0,
    }


def run_leg(name: str, quick: bool = True, closed: bool = True) -> Dict:
    workload = _workload_of(name)
    if workload == "udp_echo":
        return _udp_echo_leg(name, quick, closed=closed)
    if workload == "tcp_objects":
        return _tcp_objects_leg(name, quick, closed=closed)
    if workload == "fabric_fat_tree":
        return _fabric_leg(quick)
    if workload == "mega_flows":
        return _mega_leg(quick)
    raise ValueError("unknown latency leg %r" % (name,))


# ---------------------------------------------------------------------------
# closed-loop decomposition probes (SloTracker attached)
# ---------------------------------------------------------------------------

def _probe_record(lifecycle: RequestLifecycle, kind: str,
                  trips: int) -> Dict:
    errors = []
    for request in lifecycle.completed:
        if request.component_sum_ns() != request.total_ns:
            errors.append(
                "request %r does not reconcile: components sum to %d ns, "
                "end-to-end is %d ns"
                % (request, request.component_sum_ns(), request.total_ns))
    record = _record(lifecycle, kind, trips)
    return {
        "percentiles": record,
        "components_ns": lifecycle.component_totals_ns(kind),
        "reconciled": not errors,
        "errors": errors,
    }


def _udp_clean_probe(trips: int) -> Dict:
    """Figure 5's ping-pong with the decomposition attached."""
    from ..core.manager import Credential
    from ..lang.ephemeral import ephemeral
    from ..sim import Signal
    from .testbed import build_testbed

    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    engine = bed.engine
    client_stack, server_stack = bed.stacks
    client_host = bed.hosts[0]
    tracker = SloTracker(engine).attach(bed.hosts, bed.nics)
    lifecycle = RequestLifecycle(engine, tracker)
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
        Credential("probe-pong"), _ECHO_PORT, server_handler, mode="inline")
    client_ep = client_stack.udp_manager.bind(
        Credential("probe-ping"), _ECHO_PORT + 1, client_handler,
        mode="inline")

    payload = bytes(64)

    def ping_loop():
        for _ in range(trips):
            request = lifecycle.begin("udp_probe")
            waiter = reply_seen.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(payload, bed.ip(1), _ECHO_PORT))
            yield waiter
            lifecycle.end(request)

    engine.run_process(ping_loop(), name="slo-udp-probe")
    tracker.detach()
    return _probe_record(lifecycle, "udp_probe", trips)


def _tcp_probe(trips: int, impaired: bool) -> Dict:
    """Sequential object fetches, optionally over a bursty-loss wire.

    Runs under ``engine.run(until=...)`` rather than ``run_process`` so
    a lost handshake can never hang the harness: an unfinished request
    simply stays open and out of the percentiles.
    """
    from ..hw.link import ImpairmentConfig
    from .testbed import build_testbed

    bed = build_testbed("unix", "atm", deliver_mode="interrupt")
    engine = bed.engine
    client_sockets, server_sockets = bed.sockets
    server_ip = bed.ip(1)
    if impaired:
        config = ImpairmentConfig(loss_good=0.02, loss_bad=0.4,
                                  p_good_bad=0.08, p_bad_good=0.3)
        for medium in bed.media():
            medium.set_impairments(config, seed=_IMPAIRED_SEED)
    tracker = SloTracker(engine).attach(bed.hosts, bed.nics)
    lifecycle = RequestLifecycle(engine, tracker)

    def server():
        listener = server_sockets.tcp_socket()
        yield from listener.listen(_TCP_PORT, backlog=trips)
        while True:
            child = yield from listener.accept()
            yield from child.send(_TCP_OBJECT)
            yield from child.close()

    def client():
        for seq in range(trips):
            yield engine.pooled_timeout(1000.0)
            request = lifecycle.begin("tcp_probe", seq)
            sock = client_sockets.tcp_socket()
            yield from sock.connect((server_ip, _TCP_PORT))
            while True:
                data = yield from sock.recv()
                if not data:
                    break
            yield from sock.close()
            lifecycle.end(request)

    engine.process(server(), name="slo-probe-server")
    engine.process(client(), name="slo-probe-client")
    engine.run(until=_PROBE_HORIZON_US)
    tracker.detach()
    return _probe_record(lifecycle, "tcp_probe", trips)


def run_probe(name: str, quick: bool = True) -> Dict:
    trips = _PROBE_TRIPS[0 if quick else 1]
    if name == "udp_clean":
        return _udp_clean_probe(trips)
    if name == "tcp_clean":
        return _tcp_probe(trips, impaired=False)
    if name == "tcp_impaired":
        return _tcp_probe(trips, impaired=True)
    raise ValueError("unknown decomposition probe %r" % (name,))


# ---------------------------------------------------------------------------
# suite orchestration (shardable like the wall-clock suite)
# ---------------------------------------------------------------------------

#: the leg the flow-cache rung check reruns (the tightest udp load --
#: the one that exercises the most cached delivery paths per request).
_RUNG_LEG = "udp_echo@g400"


def _latency_task(payload: Tuple[str, str, bool]) -> Dict:
    """One suite task (runs in a worker process under ``--jobs``)."""
    import random

    kind, param, quick = payload
    random.seed(zlib.crc32(("latency:%s:%s" % (kind, param)).encode())
                ^ 0x9E3779B9)
    if kind == "leg":
        return run_leg(param, quick=quick)
    if kind == "probe":
        return run_probe(param, quick=quick)
    if kind == "rung":
        from .wallclock import _MODE_ENV
        overrides = _MODE_ENV[param]
        saved = {key: os.environ.get(key) for key in overrides}
        os.environ.update(overrides)
        try:
            leg = run_leg(_RUNG_LEG, quick=quick, closed=False)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return leg["open"]
    raise ValueError("unknown latency task %r" % (kind,))


def run_latency_suite(quick: bool = True, jobs: int = 1) -> Dict:
    """Run every leg, probe and rung; returns the full report dict."""
    from .runner import _map_tasks
    from .wallclock import _MODE_ENV, host_fingerprint

    legs = leg_names(quick)
    payloads = ([("leg", name, quick) for name in legs]
                + [("probe", name, quick) for name in PROBES]
                + [("rung", mode, quick) for mode in _MODE_ENV])
    results = _map_tasks(_latency_task, payloads, jobs)
    merged = dict(zip([(kind, param) for kind, param, _q in payloads],
                      results))
    rung_fingerprints = {mode: merged[("rung", mode)] for mode in _MODE_ENV}
    rung_ok = all(fingerprint == rung_fingerprints["current"]
                  for fingerprint in rung_fingerprints.values())
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generated_by": "python -m repro.bench --latency",
        "quick": quick,
        "host": host_fingerprint(),
        "legs": {name: merged[("leg", name)] for name in legs},
        "decomposition": {name: merged[("probe", name)] for name in PROBES},
        "rungs": {
            "leg": _RUNG_LEG,
            "fingerprints": rung_fingerprints,
            "ok": rung_ok,
        },
    }
    baseline = load_baseline()
    report["comparison"] = compare_to_baseline(report, baseline or {})
    return report


# ---------------------------------------------------------------------------
# baseline comparison (percentile drift fails; wall-clock drift warns)
# ---------------------------------------------------------------------------

#: the integer simulated-time fields a side's fingerprint consists of.
_FINGERPRINT_KEYS = ("n", "p50_ns", "p99_ns", "p999_ns", "max_ns",
                     "sum_ns", "requested", "completed", "still_open")


def side_fingerprint(record: Dict) -> Dict:
    """The gated subset of one side's record (drops host wall time)."""
    return {key: record[key] for key in _FINGERPRINT_KEYS if key in record}


def load_baseline(path: str = None) -> Optional[Dict]:
    path = path or BASELINE_PATH
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def compare_to_baseline(report: Dict, baseline: Dict,
                        slowdown_warn: Optional[float] = None) -> Dict:
    """Gate percentile fingerprints hard; warn on wall-clock drift.

    The asymmetry is the wall-clock suite's (PR 6): percentile
    fingerprints are simulated-time integers, identical on any host, so
    any mismatch against the committed baseline is an *error*.  Per-leg
    wall seconds are host measurements: beyond ``slowdown_warn``
    (``REPRO_BENCH_WARN_PCT``, default 20%) they *warn*, and when the
    baseline was recorded on different hardware the warning says exactly
    that.  A missing baseline (new leg, first run) also only warns.
    """
    if slowdown_warn is None:
        from .regression import bench_warn_pct
        slowdown_warn = bench_warn_pct() / 100.0
    mode = "quick" if report["quick"] else "full"
    base = baseline.get(mode, {})
    baseline_host = baseline.get("host")
    cross_machine = baseline_host is None or baseline_host != report.get("host")
    host_note = (" (informational: baseline recorded on a different or "
                 "unknown host)" if cross_machine else "")
    rows = {}
    for name, leg in report["legs"].items():
        row = {"leg": name, "ok": True, "warnings": [], "errors": []}
        rows[name] = row
        base_leg = base.get("legs", {}).get(name)
        if base_leg is None:
            row["warnings"].append("no committed baseline for %r" % name)
            continue
        for side in ("open", "closed", "open_tcp"):
            if side not in leg or side not in base_leg:
                continue
            fresh = side_fingerprint(leg[side])
            committed = side_fingerprint(base_leg[side])
            if fresh != committed:
                row["ok"] = False
                row["errors"].append(
                    "%s percentile fingerprint drifted: %r != baseline %r"
                    % (side, fresh, committed))
        if base_leg.get("wall_s") and leg.get("wall_s"):
            ratio = leg["wall_s"] / base_leg["wall_s"]
            row["wall_s_vs_baseline"] = ratio
            if ratio > 1.0 + slowdown_warn:
                row["warnings"].append(
                    "leg wall time is %.0f%% of committed baseline (warn "
                    "threshold %.0f%%)%s"
                    % (100 * ratio, 100 * (1.0 + slowdown_warn), host_note))
    for name, probe in report["decomposition"].items():
        row = {"leg": "decomposition:" + name, "ok": True,
               "warnings": [], "errors": []}
        rows["decomposition:" + name] = row
        if not probe["reconciled"]:
            row["ok"] = False
            row["errors"].extend(probe["errors"])
        base_probe = base.get("decomposition", {}).get(name)
        if base_probe is None:
            row["warnings"].append(
                "no committed baseline for decomposition probe %r" % name)
            continue
        fresh = side_fingerprint(probe["percentiles"])
        committed = side_fingerprint(base_probe["percentiles"])
        if fresh != committed:
            row["ok"] = False
            row["errors"].append(
                "probe percentile fingerprint drifted: %r != baseline %r"
                % (fresh, committed))
        if probe["components_ns"] != base_probe.get("components_ns"):
            row["ok"] = False
            row["errors"].append(
                "probe decomposition drifted: %r != baseline %r"
                % (probe["components_ns"], base_probe.get("components_ns")))
    rung_row = {"leg": "rungs", "ok": report["rungs"]["ok"],
                "warnings": [], "errors": []}
    if not report["rungs"]["ok"]:
        rung_row["errors"].append(
            "flow-cache rung divergence on %r: %r"
            % (report["rungs"]["leg"], report["rungs"]["fingerprints"]))
    rows["rungs"] = rung_row
    return rows


def write_report(report: Dict, path: str = None) -> str:
    """Write the report JSON at the repo root; returns the path."""
    path = path or os.path.join(_REPO_ROOT, REPORT_FILENAME)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def baseline_from_report(report: Dict, existing: Optional[Dict]) -> Dict:
    """Fold a fresh report into the committed-baseline structure."""
    baseline = dict(existing or {})
    baseline["schema_version"] = REPORT_SCHEMA_VERSION
    baseline["host"] = report["host"]
    mode = "quick" if report["quick"] else "full"
    section = {"legs": {}, "decomposition": {}}
    for name, leg in report["legs"].items():
        entry = {"workload": leg["workload"],
                 "mean_gap_us": leg["mean_gap_us"],
                 "wall_s": leg["wall_s"]}
        for side in ("open", "closed", "open_tcp"):
            if side in leg:
                entry[side] = side_fingerprint(leg[side])
        if "tail_gap_p99_ns" in leg:
            entry["tail_gap_p99_ns"] = leg["tail_gap_p99_ns"]
        section["legs"][name] = entry
    for name, probe in report["decomposition"].items():
        section["decomposition"][name] = {
            "percentiles": side_fingerprint(probe["percentiles"]),
            "components_ns": probe["components_ns"],
        }
    baseline[mode] = section
    return baseline


def write_baseline(report: Dict, path: str = None) -> str:
    """Write (merge) the committed baseline; returns the path."""
    path = path or BASELINE_PATH
    baseline = baseline_from_report(report, load_baseline(path))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
