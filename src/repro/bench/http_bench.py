"""HTTP service latency: the paper's closing demo, quantified.

The paper concludes by pointing at "a demonstration of the protocol stack
as it services HTTP requests".  This harness measures GET latency for the
in-kernel HTTP server (requests parsed and answered inside TCB callbacks)
against the user-level daemon, over the same Ethernet and TCP stack --
the architecture comparison applied to a real application protocol.

Also home to the CPU-scaling sensitivity sweep: rerunning the Figure 5
headline on uniformly faster/slower processors shows which results are
CPU-bound (they scale) and which are wire-bound (they do not).
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.httpd import SpinHttpClient, SpinHttpServer, UnixHttpServer, unix_http_get
from ..hw.alpha import ALPHA_21064
from ..obs.slo import RequestLifecycle
from .stats import Summary
from .testbed import build_testbed

__all__ = ["measure_spin_http", "measure_unix_http", "http_comparison",
           "cpu_scaling_sweep"]

_PAGES = {"/": b"x" * 512, "/big": b"y" * 16_384}
_PORT = 8088


def measure_spin_http(path: str = "/", requests: int = 10) -> Summary:
    """GET latency against the in-kernel server (one warm connection)."""
    bed = build_testbed("spin", "ethernet")
    engine = bed.engine
    SpinHttpServer(bed.stacks[1], _PAGES, port=_PORT)
    client = SpinHttpClient(bed.stacks[0], bed.ip(1), port=_PORT)
    engine.run_process(client.fetch(path))  # connect + warm
    lifecycle = RequestLifecycle(engine)
    for _ in range(requests):
        request = lifecycle.begin("http_page")
        status, _body = engine.run_process(client.fetch(path))
        assert status == 200
        lifecycle.end(request)
    return lifecycle.summary("http_page")


def measure_unix_http(path: str = "/", requests: int = 10) -> Summary:
    """GET latency against the user-level daemon (connection per request,
    as simple HTTP/1.0 clients do)."""
    bed = build_testbed("unix", "ethernet")
    engine = bed.engine
    UnixHttpServer(bed.sockets[1], _PAGES, port=_PORT)
    lifecycle = RequestLifecycle(engine)
    for _ in range(requests):
        request = lifecycle.begin("http_page")
        status, _body = engine.run_process(
            unix_http_get(bed.sockets[0], bed.ip(1), path, port=_PORT))
        assert status == 200
        lifecycle.end(request)
    return lifecycle.summary("http_page")


def http_comparison(requests: int = 10) -> List[Dict]:
    rows = []
    for path, label in (("/", "512B page"), ("/big", "16KB page")):
        spin = measure_spin_http(path, requests)
        unix = measure_unix_http(path, requests)
        rows.append({"page": label, "system": "plexus",
                     "latency_us": spin.mean})
        rows.append({"page": label, "system": "unix",
                     "latency_us": unix.mean})
    return rows


def cpu_scaling_sweep(factors=(0.5, 1.0, 2.0), trips: int = 6) -> List[Dict]:
    """Figure 5's Ethernet headline on faster/slower CPUs.

    Uniformly scaling the cost table models a different processor
    generation; wire time stays fixed.  The in-kernel path is mostly
    driver+protocol CPU, so it scales strongly; the wire-bound share does
    not.  (factor 0.5 = a CPU twice as fast as the Alpha 21064.)
    """
    from .latency import measure_plexus_udp_rtt, measure_unix_udp_rtt
    rows: List[Dict] = []
    for factor in factors:
        costs = ALPHA_21064.scaled(factor)
        plexus = measure_plexus_udp_rtt("ethernet", trips=trips, costs=costs)
        unix = measure_unix_udp_rtt("ethernet", trips=trips, costs=costs)
        rows.append({"cpu_factor": factor,
                     "plexus_us": plexus.mean,
                     "unix_us": unix.mean,
                     "gap_us": unix.mean - plexus.mean})
    return rows
