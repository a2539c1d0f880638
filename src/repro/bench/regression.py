"""Golden-number regression checking.

The calibration in ``repro/hw/alpha.py`` is the reproduction's contract
with the paper; an innocent-looking cost or protocol change can silently
drift the headline numbers.  This module pins them: :data:`GOLDEN` holds
the expected value and tolerance for each headline metric, and
:func:`check_all` measures and compares.  ``python -m repro.bench
--check`` runs it from the command line; ``benchmarks/`` asserts a quick
subset on every run.
"""

from __future__ import annotations

import os
from typing import Dict, List

__all__ = ["GOLDEN", "check_all", "check_one", "wallclock_smoke",
           "bench_warn_pct", "bench_fail_pct",
           "DEFAULT_WARN_PCT", "DEFAULT_FAIL_PCT"]

#: default wall-clock slowdown warning threshold, in percent (versus the
#: committed baseline -- possibly another machine, so warning is all it
#: can honestly do).
DEFAULT_WARN_PCT = 20.0

#: default wall-clock slowdown *failure* threshold, in percent, versus
#: the same-run ``REPRO_FLOW_CACHE=0`` oracle leg -- same machine,
#: same process, so a regression there is attributable to the code.
DEFAULT_FAIL_PCT = 20.0


def _pct_env(var: str, default: float) -> float:
    """A percentage threshold from the environment, defensively parsed.

    Invalid or negative values fall back to the default rather than
    erroring: the benchmark harness should never die because of a typo
    in CI config.
    """
    raw = os.environ.get(var, "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if value < 0:
        return default
    return value


def bench_warn_pct() -> float:
    """Wall-clock slowdown warning threshold, in percent.

    ``REPRO_BENCH_WARN_PCT`` overrides the default (e.g. ``35`` on a
    noisy shared CI runner, ``5`` on a quiet dedicated box).
    """
    return _pct_env("REPRO_BENCH_WARN_PCT", DEFAULT_WARN_PCT)


def bench_fail_pct() -> float:
    """Wall-clock same-run regression failure threshold, in percent.

    ``REPRO_BENCH_FAIL_PCT`` overrides the default.  Applied to the
    current-vs-oracle ratio within one report (see
    ``repro.bench.wallclock.compare_to_baseline``); unlike the warning
    threshold this one gates, because both legs ran on the same host in
    the same process.
    """
    return _pct_env("REPRO_BENCH_FAIL_PCT", DEFAULT_FAIL_PCT)


def _fig5(device: str, system: str, **kwargs):
    def measure() -> float:
        from .latency import (
            measure_plexus_udp_rtt,
            measure_raw_rtt,
            measure_unix_udp_rtt,
        )
        if system == "raw":
            return measure_raw_rtt(device, trips=6, **kwargs).mean
        if system == "unix":
            return measure_unix_udp_rtt(device, trips=6, **kwargs).mean
        return measure_plexus_udp_rtt(device, system, trips=6, **kwargs).mean
    return measure


def _tcp(os_name: str, device: str):
    def measure() -> float:
        from .throughput import (
            measure_plexus_tcp_throughput,
            measure_unix_tcp_throughput,
        )
        if os_name == "spin":
            return measure_plexus_tcp_throughput(device, 400_000)
        return measure_unix_tcp_throughput(device, 400_000)
    return measure


def _video_ratio() -> float:
    from .video import SATURATION_STREAMS, measure_video_server
    spin = measure_video_server("spin", SATURATION_STREAMS, 0.3)
    unix = measure_video_server("unix", SATURATION_STREAMS, 0.3)
    return unix["utilization"] / spin["utilization"]


def _forwarding_ratio() -> float:
    from .forwarding import measure_plexus_forwarding, measure_unix_forwarding
    plexus = measure_plexus_forwarding(trips=6)
    unix = measure_unix_forwarding(trips=6)
    return unix["rtt"].mean / plexus["rtt"].mean


#: metric name -> (measure_fn, expected, relative tolerance)
GOLDEN: Dict[str, tuple] = {
    "fig5.ethernet.plexus-interrupt.us": (
        _fig5("ethernet", "interrupt"), 575.0, 0.05),
    "fig5.atm.plexus-interrupt.us": (
        _fig5("atm", "interrupt"), 357.0, 0.05),
    "fig5.t3.plexus-interrupt.us": (
        _fig5("t3", "interrupt"), 303.0, 0.05),
    "fig5.ethernet.fast.us": (
        _fig5("ethernet", "interrupt", fast_driver=True), 341.0, 0.05),
    "fig5.ethernet.unix.us": (
        _fig5("ethernet", "unix"), 980.0, 0.06),
    "sec42.atm.plexus.mbps": (_tcp("spin", "atm"), 33.0, 0.08),
    "sec42.atm.unix.mbps": (_tcp("unix", "atm"), 27.6, 0.08),
    "sec42.ethernet.plexus.mbps": (_tcp("spin", "ethernet"), 9.1, 0.05),
    "fig6.cpu-ratio-at-saturation": (_video_ratio, 2.0, 0.15),
    "fig7.splice-over-plexus-ratio": (_forwarding_ratio, 2.1, 0.15),
}


def check_one(name: str) -> Dict:
    """Measure one golden metric; returns the comparison record."""
    measure, expected, tolerance = GOLDEN[name]
    measured = measure()
    deviation = abs(measured - expected) / expected
    return {
        "metric": name,
        "expected": expected,
        "measured": measured,
        "deviation": deviation,
        "tolerance": tolerance,
        "ok": deviation <= tolerance,
    }


def check_all(names: List[str] = None) -> List[Dict]:
    """Measure every golden metric (or the named subset)."""
    return [check_one(name) for name in (names or sorted(GOLDEN))]


def wallclock_smoke() -> List[Dict]:
    """Quick wall-clock suite vs the committed baseline, as check rows.

    Same row shape as :func:`check_all` so ``--check`` can print one
    table.  ``ok`` is False on simulated-time fingerprint drift (against
    the committed baseline or the same-run ``REPRO_FLOW_CACHE=0``
    leg) and on a same-run regression against that leg past
    ``REPRO_BENCH_FAIL_PCT`` (default 20%).  Events/sec below the
    *committed* baseline only sets ``warned``: that comparison may span
    machines, so host-side throughput against it is not a golden
    number.
    """
    from .wallclock import compare_to_baseline, load_baseline, run_suite

    tolerance = bench_warn_pct() / 100.0
    suite = run_suite(quick=True, repeats=3)
    baseline = load_baseline()
    rows: List[Dict] = []
    if baseline is None:
        return [{"metric": "wallclock.baseline", "expected": "present",
                 "measured": "missing", "deviation": None, "tolerance": None,
                 "ok": True, "warned": True}]
    for name, row in sorted(compare_to_baseline(suite, baseline).items()):
        ratio = row.get("events_per_sec_vs_baseline")
        rows.append({
            "metric": "wallclock.%s.events_per_sec" % name,
            "expected": baseline["quick"]["workloads"][name]["events_per_sec"],
            "measured": suite["workloads"][name]["events_per_sec"],
            "deviation": (None if ratio is None else abs(1.0 - ratio)),
            "tolerance": tolerance,
            "ok": not row["errors"],
            "warned": bool(row["warnings"]),
        })
    return rows
