"""Partitioned workloads: speedup-curve legs and the coordination bench.

A shardable registry record (:mod:`repro.bench.workloads`) runs as a
:class:`repro.sim.PartitionedSimulation` -- the serial executor
(``REPRO_SIM_PARALLEL=0`` or ``parallel=False``) as the bit-exactness
oracle, the parallel executor forking one worker process per partition.
``many_flows`` and ``mega_flows`` shard their flows: each partition owns
a private client/server bed carrying its contiguous slice, with no
boundary channels between the shards -- which is exactly what makes the
speedup curve an honest measure of the partitioned core's overhead:
every event still flows through the same ``SchedulerCore``, rounds, and
result merge.  ``fabric_fat_tree`` shards its topology instead, so every
datagram crosses the partition boundary.

A *leg* pairs the two executors at one partition count.  Its identity
(event count, merged fingerprint, digest of the merged metrics snapshot)
must be equal between them -- the gate's same-run-twin policy -- and its
speed is read against the jobs=1 serial reference of its sweep.

``python -m repro.bench --parallel-curve`` writes ``BENCH_parallel.json``
(``many_flows`` at jobs 1/2/4, a ``fabric_fat_tree`` and a ``mega_flows``
leg at jobs=2, the round-overhead microbench); ``--round-overhead`` runs
the coordination-cost microbench on its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .gate import REPO_ROOT, env_threshold, judge, new_report
from .workloads import WORKLOADS, Workload, run_partitioned

__all__ = ["REPORT_PATH", "CURVE_WORKLOAD", "affinity_cores", "run_leg",
           "run_parallel_legs", "leg_rows", "run_curve",
           "run_round_overhead"]

REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_parallel.json")

#: the workload whose jobs 1/2/4 sweep is the speedup curve, and whose
#: jobs=2 leg must reach ``REPRO_SIM_SPEEDUP_MIN``.
CURVE_WORKLOAD = "many_flows"


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
    side = {key: result[key] for key in (
        "wall_s", "events_per_sec", "rounds", "per_flow_kb")}
    side["identity"] = {
        "events": result["events"],
        "fingerprint": result["fingerprint"],
        "metrics_sha1": hashlib.sha1(json.dumps(
            result["metrics"], sort_keys=True).encode("utf-8")).hexdigest(),
    }
    return side


def run_leg(record: Workload, scale: int, jobs: int,
            reference: Optional[Dict] = None) -> Dict:
    """Both executors at ``jobs`` partitions.

    The *identity* oracle cannot be shared across partition counts
    (fingerprints carry ``partitions``), so every leg runs the serial
    executor at its own count -- except jobs=1 against a ``reference``,
    where the "serial" and "parallel" executors are the identical
    in-process code path and ``reference`` stands for both.  ``speedup``
    is against ``reference`` (the sweep's jobs=1 run) when there is one,
    else against the leg's own serial-oracle run.
    """
    if jobs == 1 and reference is not None:
        oracle = current = reference
    else:
        oracle = run_partitioned(record, scale, jobs, parallel=False)
        current = run_partitioned(record, scale, jobs, parallel=None)
    leg = {
        "workload": record.name,
        "sim_jobs": jobs,
        "scale": scale,
        "executor": current["executor"],
        # The serial oracle's peak-delta per_flow_kb is the cleaner
        # memory figure: forked workers inherit resident pages,
        # deflating their VmRSS growth.
        "oracle": _side(oracle),
        "parallel": _side(current),
        "speedup": ((reference or oracle)["wall_s"] / current["wall_s"]
                    if current["wall_s"] > 0 else 0.0),
    }
    if reference is not None:
        leg["serial"] = {"wall_s": reference["wall_s"],
                         "events_per_sec": reference["events_per_sec"]}
    return leg


def run_parallel_legs(jobs_values: Sequence[int], scale: int,
                      workload: str = CURVE_WORKLOAD) -> List[Dict]:
    """One leg per jobs value against a shared jobs=1 serial reference,
    which runs exactly once, warmed by a discarded small-scale pass
    (imports, codegen, allocator pools) so it is not the one cold run of
    the sweep."""
    record = WORKLOADS[workload]
    run_partitioned(record, min(scale, 512), 1, parallel=False)
    reference = run_partitioned(record, scale, 1, parallel=False)
    return [run_leg(record, scale, jobs, reference) for jobs in jobs_values]


def leg_rows(legs: Sequence[Dict],
             min_speedup: Optional[float] = None) -> Tuple[Dict, Dict]:
    """Legs as gate rows: the parallel run's identity against the serial
    oracle's, its wall time against the serial reference's.

    With ``min_speedup`` the curve workload's jobs=2 forked leg must
    reach that ratio -- on hosts with >= 2 affinity-visible cores.  On a
    single core a speedup is physically meaningless, so the row records
    a note instead of a floor.  Leg rows are same-run evidence only and
    never enter a committed baseline.
    """
    rows, twins = {}, {}
    for leg in legs:
        name = "%s x%d" % (leg["workload"], leg["sim_jobs"])
        rows[name] = {"fingerprint": leg["parallel"]["identity"],
                      "wall_s": leg["parallel"]["wall_s"],
                      "committed": False}
        twins[name] = {"fingerprint": leg["oracle"]["identity"],
                       "wall_s": leg.get("serial", leg["oracle"])["wall_s"]}
        if (min_speedup is not None and leg["workload"] == CURVE_WORKLOAD
                and leg["sim_jobs"] == 2 and leg["executor"] == "parallel"):
            cores = affinity_cores()
            if cores >= 2:
                twins[name]["min_ratio"] = min_speedup
            else:
                rows[name]["warnings"] = [
                    "single core visible (affinity=%d): the %.2fx jobs=2 "
                    "expectation is not gated" % (cores, min_speedup)]
    return rows, twins


def run_curve(quick: bool) -> Dict:
    """The ``BENCH_parallel.json`` report, judged.

    Errors on identity divergence between the executors and -- with >= 2
    visible cores -- on the jobs=2 speedup expectation.  The
    ``fabric_fat_tree`` leg cuts a multi-hop topology at the partition
    boundary instead of sharding flows; the ``mega_flows`` headline leg
    has no jobs=1 reference (a third full-scale run for a number the
    headline does not report).
    """
    curve, fabric, mega = (WORKLOADS[name] for name in (
        CURVE_WORKLOAD, "fabric_fat_tree", "mega_flows"))
    legs = run_parallel_legs([1, 2, 4], curve.scale(quick))
    legs += run_parallel_legs([2], fabric.scale(quick), fabric.name)
    legs.append(run_leg(mega, mega.scale(quick), 2))
    overhead = run_round_overhead(parallel=None)
    report = new_report("--parallel-curve", quick)
    report.update(
        cpu_count=os.cpu_count(), affinity_cores=affinity_cores(), legs=legs,
        # The metrics snapshot is already summarized by the scalar
        # fields; keep the artifact lean.
        round_overhead={key: value for key, value in overhead.items()
                        if key != "metrics"})
    return judge(report, lambda report: leg_rows(
        report["legs"], env_threshold("REPRO_SIM_SPEEDUP_MIN")))


# ---------------------------------------------------------------------------
# round-overhead microbench
# ---------------------------------------------------------------------------

class _EchoChannel:
    """A minimal boundary channel for the round-overhead microbench.

    No testbed, no protocol stack: partition 0 sends a ping, partition 1
    echoes it back from ``deliver``, and each exchange *forces* a
    coordinator round trip -- the sum measured is pure round machinery
    (routing, bound relaxation, ring transport, barrier), which is the
    coordination cost the flamegraph profiler wants attributed.
    """

    CHANNEL_ID = "round-overhead"
    LOOKAHEAD_US = 1.0

    def __init__(self, engine, echo: bool, messages: int = 0):
        self.engine = engine
        self.channel_id = self.CHANNEL_ID
        self.lookahead_us = self.LOOKAHEAD_US
        self.echo = echo
        self.messages = messages
        self.sent = 0
        self.received = 0
        engine.register_channel(self)

    def send_next(self) -> None:
        self.sent += 1
        self.engine.send_boundary(
            self.channel_id, self.engine.now + self.lookahead_us, self.sent,
            b"ping")

    def deliver(self, payload) -> None:
        self.received += 1
        if self.echo:
            self.send_next()
        elif self.sent < self.messages:
            self.send_next()


def _round_overhead_partition(index: int, n_partitions: int, spec: Dict):
    from ..sim import Partition, PartitionEngine

    engine = PartitionEngine(index)
    messages = spec["messages"]
    if index == 0:
        channel = _EchoChannel(engine, echo=False, messages=messages)
        engine.call_at(0.5, lambda _event: channel.send_next())
        return Partition(
            engine,
            done=lambda: channel.received == messages,
            result=lambda: {"sent": channel.sent,
                            "received": channel.received,
                            "events": engine.events_processed})
    channel = _EchoChannel(engine, echo=True)
    return Partition(
        engine, done=lambda: True,
        result=lambda: {"sent": channel.sent, "received": channel.received,
                        "events": engine.events_processed})


def run_round_overhead(messages: int = 500,
                       parallel: Optional[bool] = None) -> Dict:
    """Measure per-round coordination cost with a forced-round ping-pong.

    Every message needs two rounds (ping over, echo back), so
    ``rounds/sec`` is the reciprocal of the full coordinator round trip
    and ``barrier_us`` is the wall cost of post+window+collect per round.
    The counters are also exported through a ``repro.obs`` registry
    (``sim.coord.*``) so profiler pipelines can ingest them uniformly.
    """
    from ..obs.registry import MetricsRegistry
    from ..sim import PartitionedSimulation

    simulation = PartitionedSimulation(
        _round_overhead_partition, 2, {"messages": messages},
        parallel=parallel)
    wall0 = time.perf_counter()
    results = simulation.run()
    wall = time.perf_counter() - wall0
    if results[0]["received"] != messages:
        raise AssertionError(
            "round-overhead bench lost messages: %d echoed of %d"
            % (results[0]["received"], messages))

    registry = MetricsRegistry()
    simulation.register_metrics(registry)
    stats = simulation.round_stats()
    return {
        "messages": messages,
        "executor": "parallel" if simulation.parallel else "serial",
        "wall_s": wall,
        "rounds": stats["rounds"],
        "rounds_per_sec": stats["rounds"] / wall if wall > 0 else 0.0,
        "events_per_round": stats["events_per_round"],
        "barrier_us": stats["barrier_us_mean"],
        "frames_routed": stats["frames_routed"],
        "ring_fallbacks": stats["ring_fallbacks"],
        "metrics": registry.snapshot(),
    }
