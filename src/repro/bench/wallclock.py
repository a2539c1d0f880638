"""The simulator's own workloads, fingerprinted on both dispatch rungs.

Every other experiment in :mod:`repro.bench` reports *simulated* time --
the microseconds the modeled Alpha would take.  This suite checks that
the substrate underneath stays bit-for-bit the same simulator:
``python -m repro.bench --wallclock`` runs the registry's default suite
(:mod:`repro.bench.workloads`: ``dispatcher_micro``, ``udp_pingpong``,
``tcp_bulk``, ``many_flows``) once each and writes
``BENCH_wallclock.json``.  Every workload with a dispatcher in the loop
is rerun under ``REPRO_FLOW_CACHE=0`` -- the interpreted linear scan --
in the same run: that leg is the oracle, and its fingerprints must match
byte-for-byte.  ``benchmarks/wallclock_baseline.json`` is the committed
baseline: fingerprint drift against it fails (:mod:`repro.bench.gate`).

The records keep ``wall_s``, ``events_per_sec`` and ``packets_per_sec``
as unjudged host measurements, labelled by the report's ``host``.  How
fast the simulator runs is measured in one calibrated place,
``perfbench/`` (exact ``bytecodes_per_op`` under either rung); nothing
here judges a host time.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from ..spin.flowcache import flow_cache_enabled
from .gate import REPO_ROOT, ROW_KEYS, judge, new_report
from .runner import run_wallclock_suite
from .workloads import WORKLOADS

__all__ = ["REPORT_PATH", "BASELINE_PATH", "run_suite", "rows"]

REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_wallclock.json")
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks",
                             "wallclock_baseline.json")


def run_suite(quick: bool = False, names=None, jobs: int = 1) -> Dict:
    """Run ``names`` (default: the registry's default suite) and judge.

    ``jobs > 1`` shards the workloads across worker processes;
    fingerprints -- and therefore the pass/fail outcome -- are identical
    for any jobs count.
    """
    names = list(names or sorted(
        name for name, record in WORKLOADS.items() if record.default_suite))
    # Only workloads that will actually run generated code have a
    # meaningful interpreted twin: none when the whole suite already
    # runs interpreted.
    gated = [name for name in names
             if WORKLOADS[name].has_dispatcher and flow_cache_enabled()]
    workloads, oracle = run_wallclock_suite(names, gated, quick=quick,
                                            jobs=jobs)
    report = new_report("--wallclock", quick)
    report["workloads"] = workloads
    if oracle:
        report["oracle"] = {
            name: {key: leg[key] for key in ROW_KEYS}
            for name, leg in oracle.items()}
    return judge(report, rows, BASELINE_PATH)


def rows(report: Dict) -> Tuple[Dict, Dict]:
    """The wall-clock report as gate rows: every workload's fingerprint
    against its ``REPRO_FLOW_CACHE=0`` twin's."""
    gated = {name: {key: record[key] for key in ROW_KEYS}
             for name, record in report["workloads"].items()}
    return gated, report.get("oracle", {})
