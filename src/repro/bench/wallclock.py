"""Wall-clock performance of the simulator itself.

Every other experiment in :mod:`repro.bench` measures *simulated* time --
the microseconds the modeled Alpha would take.  This suite measures how
fast the simulator's substrate runs on the host machine, because
wall-clock throughput is what gates experiment scale: a million-packet
Figure 6 sweep is bound by events/sec of the engine, not by the model.
Full-system simulators treat simulator throughput as a first-class metric
for the same reason (gem5, ns-3-class tools).

``python -m repro.bench --wallclock`` runs the registry's default suite
(:mod:`repro.bench.workloads`: ``dispatcher_micro``, ``udp_pingpong``,
``tcp_bulk``, ``many_flows``) and writes ``BENCH_wallclock.json``.
Every workload with a dispatcher in the loop is rerun under
``REPRO_FLOW_CACHE=0`` -- the interpreted linear scan -- on this machine
in this run: that leg is both the oracle (its fingerprints must match
byte-for-byte) and the denominator of the one speed ratio stable enough
to *fail* on.  ``benchmarks/wallclock_baseline.json`` is the committed
baseline: fingerprint drift against it fails, speed only warns
(:mod:`repro.bench.gate`).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from ..spin.flowcache import flow_cache_enabled
from .gate import REPO_ROOT, ROW_KEYS, env_threshold, judge, new_report
from .parallel import leg_rows, run_parallel_legs
from .runner import run_wallclock_suite
from .workloads import WORKLOADS

__all__ = ["REPORT_PATH", "BASELINE_PATH", "run_suite", "rows"]

REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_wallclock.json")
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks",
                             "wallclock_baseline.json")


def run_suite(quick: bool = False, repeats: int = 1, names=None,
              jobs: int = 1, sim_jobs: int = 1) -> Dict:
    """Run ``names`` (default: the registry's default suite) and judge.

    ``jobs > 1`` shards the workloads across worker processes;
    fingerprints -- and therefore the pass/fail outcome -- are identical
    for any jobs count.  ``sim_jobs > 1`` additionally runs the
    ``many_flows`` leg (in-process oracle + forked run at ``sim_jobs``
    shards) as the report's ``parallel`` section.  It runs in *this*
    process, after the pool has drained: the forked run starts one
    worker per shard itself.  The classic records are not affected by
    the flag.
    """
    names = list(names or sorted(
        name for name, record in WORKLOADS.items() if record.default_suite))
    # Only workloads that will actually run generated code have a
    # meaningful interpreted twin: none when the whole suite already
    # runs interpreted.
    gated = [name for name in names
             if WORKLOADS[name].has_dispatcher and flow_cache_enabled()]
    workloads, oracle = run_wallclock_suite(names, gated, quick=quick,
                                            repeats=repeats, jobs=jobs)
    report = new_report("--wallclock", quick)
    report["workloads"] = workloads
    if oracle:
        report["oracle"] = {
            name: {key: leg[key] for key in ROW_KEYS}
            for name, leg in oracle.items()}
    if sim_jobs > 1:
        report["parallel"] = {"legs": run_parallel_legs([sim_jobs], quick)}
    return judge(report, rows, BASELINE_PATH)


def rows(report: Dict) -> Tuple[Dict, Dict]:
    """The wall-clock report as gate rows: every workload against its
    ``REPRO_FLOW_CACHE=0`` twin (floor: ``REPRO_BENCH_FAIL_PCT`` below
    it), plus the sharded legs against their in-process oracles."""
    floor = 1.0 - env_threshold("REPRO_BENCH_FAIL_PCT") / 100.0
    gated = {name: {key: record[key] for key in ROW_KEYS}
             for name, record in report["workloads"].items()}
    twins = {name: dict(leg, min_ratio=floor)
             for name, leg in report.get("oracle", {}).items()}
    legs, leg_twins = leg_rows(report.get("parallel", {}).get("legs", ()))
    return {**gated, **legs}, {**twins, **leg_twins}
