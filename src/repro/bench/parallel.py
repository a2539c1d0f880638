"""Sharded workloads: the speed-up legs and their gate rows.

A shardable registry record (:mod:`repro.bench.workloads`) runs as N
shards (:func:`~repro.bench.workloads.run_partitioned`): ``many_flows``
and ``mega_flows`` shard their flows, each shard a private client/server
bed on its own engine carrying a contiguous slice, with nothing crossing
between shards.  ``parallel=False`` runs the shards in this process --
the reference -- and ``parallel=True`` forks one worker per shard.

A *leg* pairs the two at one shard count.  Its identity (event count,
merged fingerprint, digest of the merged metrics snapshot) must be equal
between them -- the gate's same-run-twin policy -- and its speed is read
against the jobs=1 serial reference of its sweep.

``python -m repro.bench --parallel-curve`` writes ``BENCH_parallel.json``
(``many_flows`` at jobs 1/2/4 and a ``mega_flows`` leg at jobs=2).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .gate import REPO_ROOT, judge, new_report
from .workloads import WORKLOADS, Workload, run_partitioned

__all__ = ["REPORT_PATH", "CURVE_WORKLOAD", "SPEEDUP_MIN", "JUDGED_SERIAL_S",
           "affinity_cores", "run_leg", "run_parallel_legs", "leg_rows",
           "run_curve"]

REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_parallel.json")

#: the workload whose jobs 1/2/4 sweep is the speedup curve.
CURVE_WORKLOAD = "many_flows"
#: the speed-up a forked jobs=2 leg must reach over its serial side
SPEEDUP_MIN = 1.3
#: the shortest serial side whose ratio carries a verdict.  Fork and
#: merge cost a fixed fraction of a second, so a ~1 s serial side reads
#: 0.89x-1.08x run to run on two cores while the >= 2 s legs of the same
#: code read 1.40x-1.83x (CHANGES.md, PR 17).
JUDGED_SERIAL_S = 2.0


def affinity_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or cgroup can
    pin the process to fewer cores, and the speedup expectation must key
    off what the executor can really use.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _side(result: Dict) -> Dict:
    """What a leg keeps of one executor's run.  ``identity`` is exactly
    the acceptance surface -- event count, simulated-time fingerprint,
    merged metrics (as a digest: the snapshot itself is large) -- and
    the rest are host measurements."""
    side = {key: result[key] for key in ("wall_s", "events_per_sec")}
    side["identity"] = {
        "events": result["events"],
        "fingerprint": result["fingerprint"],
        "metrics_sha1": hashlib.sha1(json.dumps(
            result["metrics"], sort_keys=True).encode("utf-8")).hexdigest(),
    }
    return side


def run_leg(record: Workload, scale: int, jobs: int,
            reference: Optional[Dict] = None) -> Dict:
    """The in-process and the forked run at ``jobs`` shards.

    The *identity* oracle cannot be shared across shard counts
    (fingerprints carry ``partitions``), so every leg runs in-process at
    its own count -- except jobs=1 against a ``reference``, where both
    are the identical in-process code path and ``reference`` stands for
    both.  ``speedup`` is against ``reference`` (the sweep's jobs=1 run)
    when there is one, else against the leg's own in-process run.
    """
    if jobs == 1 and reference is not None:
        oracle = current = reference
    else:
        oracle = run_partitioned(record, scale, jobs, parallel=False)
        current = run_partitioned(record, scale, jobs, parallel=True)
    leg = {
        "workload": record.name,
        "sim_jobs": jobs,
        "scale": scale,
        "executor": current["executor"],
        "oracle": _side(oracle),
        "parallel": _side(current),
        "speedup": ((reference or oracle)["wall_s"] / current["wall_s"]
                    if current["wall_s"] > 0 else 0.0),
    }
    if reference is not None:
        leg["serial"] = {"wall_s": reference["wall_s"],
                         "events_per_sec": reference["events_per_sec"]}
    return leg


def run_parallel_legs(jobs_values: Sequence[int], quick: bool) -> List[Dict]:
    """One :data:`CURVE_WORKLOAD` leg per jobs value against a shared
    jobs=1 serial reference, which runs exactly once, warmed by a
    discarded small-scale pass (imports, codegen, allocator pools) so it
    is not the one cold run of the sweep."""
    record = WORKLOADS[CURVE_WORKLOAD]
    scale = record.scale(quick)
    run_partitioned(record, min(scale, 512), 1, parallel=False)
    reference = run_partitioned(record, scale, 1, parallel=False)
    return [run_leg(record, scale, jobs, reference) for jobs in jobs_values]


def leg_rows(legs: Sequence[Dict]) -> Tuple[Dict, Dict]:
    """Legs as gate rows: the forked run's identity against the
    in-process oracle's, its wall time against the serial side's (the
    sweep's jobs=1 reference, else the oracle).

    A forked jobs=2 leg must reach :data:`SPEEDUP_MIN` -- when the
    measurement can carry a verdict.  On a single affinity-visible core
    a speed-up is physically meaningless, and a serial side under
    :data:`JUDGED_SERIAL_S` does not repeat; either way the row records
    a note instead of a floor.  Leg rows are same-run evidence only and
    never enter a committed baseline.
    """
    rows, twins = {}, {}
    for leg in legs:
        name = "%s x%d" % (leg["workload"], leg["sim_jobs"])
        serial_s = leg.get("serial", leg["oracle"])["wall_s"]
        rows[name] = {"fingerprint": leg["parallel"]["identity"],
                      "wall_s": leg["parallel"]["wall_s"],
                      "committed": False}
        twins[name] = {"fingerprint": leg["oracle"]["identity"],
                       "wall_s": serial_s}
        if leg["sim_jobs"] == 2:
            cores = affinity_cores()
            if cores < 2:
                rows[name]["warnings"] = [
                    "single core visible (affinity=%d): the %.2fx jobs=2 "
                    "expectation is not gated" % (cores, SPEEDUP_MIN)]
            elif serial_s < JUDGED_SERIAL_S:
                rows[name]["warnings"] = [
                    "serial side under %g s (%.2f s): floor not judged"
                    % (JUDGED_SERIAL_S, serial_s)]
            else:
                twins[name]["min_ratio"] = SPEEDUP_MIN
    return rows, twins


def run_curve(quick: bool) -> Dict:
    """The ``BENCH_parallel.json`` report, judged.

    Errors on identity divergence between the forked and in-process
    runs and on the jobs=2 floor (:func:`leg_rows`).  The ``mega_flows``
    headline leg has no jobs=1 reference (a third full-scale run for a
    number the headline does not report).
    """
    mega = WORKLOADS["mega_flows"]
    legs = run_parallel_legs([1, 2, 4], quick)
    legs.append(run_leg(mega, mega.scale(quick), 2))
    report = new_report("--parallel-curve", quick)
    report.update(cpu_count=os.cpu_count(), affinity_cores=affinity_cores(),
                  legs=legs)
    return judge(report, lambda report: leg_rows(report["legs"]))
