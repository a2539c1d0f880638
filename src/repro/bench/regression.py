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

from typing import Dict, List

__all__ = ["GOLDEN", "check_all", "check_one"]


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
