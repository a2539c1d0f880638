"""Command-line entry: regenerate every paper experiment.

Usage::

    python -m repro.bench             # quick pass (small trip counts)
    python -m repro.bench --full      # the numbers EXPERIMENTS.md records
    python -m repro.bench --charts    # ASCII renderings of figures 5-7
    python -m repro.bench --check     # golden-number regression check
    python -m repro.bench --wallclock # simulator wall-clock suite
                                      # (writes BENCH_wallclock.json;
                                      #  combine with --full for the
                                      #  committed scales)
    python -m repro.bench --jobs 4    # shard the independent experiments
                                      # across 4 worker processes; output
                                      # is byte-identical to --jobs 1
                                      # (also applies to --wallclock)
    python -m repro.bench --wallclock --sim-jobs 2
                                      # additionally run many_flows
                                      # sharded over 2 simulation
                                      # partitions, gated on exact
                                      # equality with the serial oracle
                                      # (REPRO_SIM_PARALLEL=0 executor)
    python -m repro.bench --parallel-curve
                                      # partitioned-many_flows speedup
                                      # curve over jobs {1, 2, 4} plus
                                      # the mega_flows headline row and
                                      # the round-overhead microbench;
                                      # writes BENCH_parallel.json and
                                      # fails on fingerprint divergence
                                      # from the oracle (and, when >= 2
                                      # cores are visible, on the jobs=2
                                      # speedup expectation)
    python -m repro.bench --round-overhead
                                      # coordination-cost microbench:
                                      # rounds/sec, events/round and
                                      # barrier_us for the serial and
                                      # parallel executors
    python -m repro.bench --speedup-smoke
                                      # CI smoke: on hosts with >= 2
                                      # visible cores, assert the jobs=2
                                      # parallel executor is no slower
                                      # than its serial oracle run;
                                      # skips (exit 0) on 1-core hosts
    python -m repro.bench --latency   # SLO tail-latency suite: open- vs
                                      # closed-loop legs, decomposition
                                      # probes and flow-cache rungs;
                                      # writes BENCH_latency.json and
                                      # fails on percentile-fingerprint
                                      # drift vs the committed baseline
                                      # (--quick is the default matrix;
                                      #  --full adds loads + mega_flows;
                                      #  --write-baseline refreshes
                                      #  benchmarks/latency_baseline.json)
"""

import sys

from .report import run_everything


def _jobs(argv) -> int:
    """Parse ``--jobs N`` (default 1: serial, in-process)."""
    if "--jobs" not in argv:
        return 1
    index = argv.index("--jobs")
    try:
        jobs = int(argv[index + 1])
    except (IndexError, ValueError):
        raise SystemExit("--jobs requires an integer argument")
    if jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    return jobs


def _sim_jobs(argv) -> int:
    """Parse ``--sim-jobs N`` (default 1: the classic single engine)."""
    if "--sim-jobs" not in argv:
        return 1
    index = argv.index("--sim-jobs")
    try:
        sim_jobs = int(argv[index + 1])
    except (IndexError, ValueError):
        raise SystemExit("--sim-jobs requires an integer argument")
    if sim_jobs < 1:
        raise SystemExit("--sim-jobs must be >= 1")
    return sim_jobs


def _print_parallel_legs(legs) -> bool:
    """Render speedup-curve legs; returns True if any leg diverged."""
    failed = False
    for leg in legs:
        print("%s x%-2d %10.3f s serial  %8.3f s parallel  "
              "%.2fx speedup  [%s]"
              % (leg.get("workload", "many_flows"), leg["sim_jobs"],
                 leg["serial"]["wall_s"], leg["parallel"]["wall_s"],
                 leg["speedup"], leg["executor"]))
        for error in leg["errors"]:
            print("  ERROR: %s" % error)
        if not leg["ok"]:
            failed = True
    return failed


def _wallclock(quick: bool, jobs: int = 1, sim_jobs: int = 1) -> int:
    from .wallclock import run_suite, write_report
    suite = run_suite(quick=quick, repeats=3, jobs=jobs, sim_jobs=sim_jobs)
    path = write_report(suite)
    host = suite.get("host", {})
    print("host: %s %s on %s %s\n"
          % (host.get("implementation", "?"), host.get("python", "?"),
             host.get("machine", "?"), host.get("system", "?")))
    failed = False
    for name in sorted(suite["workloads"]):
        record = suite["workloads"][name]
        row = suite.get("comparison", {}).get(name, {})
        line = "%-18s %10.0f ev/s  %8.3f s wall" % (
            name, record["events_per_sec"], record["wall_s"])
        if "events_per_sec_vs_oracle" in row:
            line += "  %.2fx vs oracle" % row["events_per_sec_vs_oracle"]
        print(line)
        cache = record.get("flow_cache")
        if cache and cache.get("enabled"):
            print("  flow-cache: %d hits / %d misses / %d invalidations"
                  " / %d evictions (%d entries)"
                  % (cache.get("hits", 0), cache.get("misses", 0),
                     cache.get("invalidations", 0),
                     cache.get("evictions", 0), cache.get("entries", 0)))
            print("  codegen: %d plans / %d scans compiled, "
                  "%d plan replays / %d scan raises served, "
                  "%d shape reuses"
                  % (cache.get("compiled_plans", 0),
                     cache.get("compiled_scans", 0),
                     cache.get("compiled_replays", 0),
                     cache.get("compiled_scan_raises", 0),
                     cache.get("compiled_shape_hits", 0)))
        elif cache is not None:
            print("  flow-cache: disabled (REPRO_FLOW_CACHE=0)")
        for warning in row.get("warnings", ()):
            print("  WARN: %s" % warning)
        for error in row.get("errors", ()):
            print("  ERROR: %s" % error)
        if not row.get("ok", True):
            failed = True
    parallel = suite.get("parallel")
    if parallel:
        print()
        if _print_parallel_legs(parallel["legs"]):
            failed = True
    print("\nreport written to %s" % path)
    # Fails on fingerprint drift (simulated time changed), on same-run
    # regressions against the oracle leg, and on any partitioned leg
    # diverging from its serial oracle; committed-baseline slowdowns
    # only warn.
    return 1 if failed else 0


def _print_round_overhead(record) -> None:
    print("round-overhead [%s]: %d rounds  %.0f rounds/s  "
          "%.2f ev/round  barrier %.1f us  %d frames  %d ring fallbacks"
          % (record["executor"], record["rounds"],
             record["rounds_per_sec"], record["events_per_round"],
             record["barrier_us"], record["frames_routed"],
             record["ring_fallbacks"]))


def _parallel_curve(quick: bool) -> int:
    """The ``--sim-jobs`` speedup curve: jobs in {1, 2, 4}.

    Hard-fails on fingerprint/events/metrics divergence between the
    parallel executor and the serial oracle, and -- when the host
    exposes >= 2 affinity-visible cores -- on the jobs=2 speedup
    expectation (``REPRO_SIM_SPEEDUP_MIN``).  On single-core hosts the
    curve is recorded as informational with a cpu_count annotation.
    Also runs the ``mega_flows`` headline row (oracle-gated like a
    curve leg) and the round-overhead microbench into the report.
    """
    from .parallel import (run_parallel_legs, run_partitioned_workload,
                           run_round_overhead, speedup_expectation,
                           write_parallel_report, _comparable)
    from .wallclock import WORKLOADS
    _fn, quick_scale, full_scale = WORKLOADS["many_flows"]
    scale = quick_scale if quick else full_scale
    legs = run_parallel_legs([1, 2, 4], scale)
    failed = _print_parallel_legs(legs)

    # The mega_flows headline: one serial-oracle run and one default-
    # executor run at jobs=2, identity-gated like a curve leg.  (Not a
    # run_parallel_legs sweep -- that would add a third full-scale run
    # for a jobs=1 speedup reference the headline doesn't report.)
    _fn, mega_quick, mega_full = WORKLOADS["mega_flows"]
    mega_scale = mega_quick if quick else mega_full
    mega_oracle = run_partitioned_workload("mega_flows", mega_scale, 2,
                                           parallel=False)
    mega = run_partitioned_workload("mega_flows", mega_scale, 2,
                                    parallel=None)
    # The serial oracle's peak-delta per_flow_kb is the cleaner memory
    # figure (forked workers inherit resident pages, deflating VmRSS
    # growth); keep both in the headline row.
    mega["per_flow_kb_serial"] = mega_oracle["per_flow_kb"]
    mega_ok = _comparable(mega) == _comparable(mega_oracle)
    print("mega_flows x2  %10.3f s serial  %8.3f s parallel  "
          "%.3f KB/flow (serial peak %.3f)  [%s]%s"
          % (mega_oracle["wall_s"], mega["wall_s"], mega["per_flow_kb"],
             mega["per_flow_kb_serial"], mega["executor"],
             "" if mega_ok else "  DIVERGED"))
    if not mega_ok:
        failed = True
        for key in ("events", "fingerprint", "metrics"):
            if mega[key] != mega_oracle[key]:
                print("  ERROR: mega_flows parallel %s diverged from the "
                      "serial oracle" % key)

    overhead = run_round_overhead(parallel=None)
    _print_round_overhead(overhead)

    expectation = speedup_expectation(legs)
    print("speedup expectation: %s" % expectation["note"])
    if expectation.get("passed") is False:
        failed = True

    path = write_parallel_report(legs, scale, round_overhead=overhead,
                                 mega=mega)
    print("\nreport written to %s" % path)
    return 1 if failed else 0


def _round_overhead() -> int:
    """Run the coordination-cost microbench on both executors."""
    from .parallel import run_round_overhead
    _print_round_overhead(run_round_overhead(parallel=False))
    _print_round_overhead(run_round_overhead(parallel=True))
    return 0


def _speedup_smoke(quick: bool) -> int:
    """CI smoke: jobs=2 parallel must not be slower than its own oracle.

    A weaker bar than the 1.3x curve expectation on purpose: CI runners
    are noisy and share cores, so the smoke only asserts the parallel
    executor is not a *pessimization* (wall <= 1.0x the jobs=2 serial
    oracle run).  On hosts with < 2 visible cores the assertion is
    physically meaningless and the smoke skips with a note.
    """
    from .parallel import affinity_cores, run_partitioned_workload
    from .wallclock import WORKLOADS
    import os as _os
    cores = affinity_cores()
    if cores < 2:
        print("speedup smoke: SKIP -- %d affinity-visible core(s) "
              "(os.cpu_count()=%s); a 2-partition speedup assertion "
              "needs >= 2" % (cores, _os.cpu_count()))
        return 0
    _fn, quick_scale, full_scale = WORKLOADS["many_flows"]
    scale = quick_scale if quick else full_scale
    # Warm imports/codegen so neither run eats the cold-start cost.
    run_partitioned_workload("many_flows", min(scale, 512), 1,
                             parallel=False)
    serial = run_partitioned_workload("many_flows", scale, 2, parallel=False)
    parallel = run_partitioned_workload("many_flows", scale, 2, parallel=True)
    ratio = (parallel["wall_s"] / serial["wall_s"]
             if serial["wall_s"] > 0 else float("inf"))
    ok = ratio <= 1.0
    print("speedup smoke: jobs=2 parallel %.3f s vs serial %.3f s "
          "(%.2fx serial wall) on %d cores -> %s"
          % (parallel["wall_s"], serial["wall_s"], ratio, cores,
             "ok" if ok else "FAIL (parallel slower than serial)"))
    return 0 if ok else 1


def _latency(quick: bool, jobs: int = 1, write_baseline_too: bool = False) -> int:
    from .slo import run_latency_suite, write_baseline, write_report
    suite = run_latency_suite(quick=quick, jobs=jobs)
    path = write_report(suite)
    host = suite.get("host", {})
    print("host: %s %s on %s %s\n"
          % (host.get("implementation", "?"), host.get("python", "?"),
             host.get("machine", "?"), host.get("system", "?")))
    for name in sorted(suite["legs"]):
        leg = suite["legs"][name]
        opened = leg.get("open") or {}
        line = "%-18s open  p50 %8d ns  p99 %9d ns  p999 %9d ns  (n=%d)" % (
            name, opened.get("p50_ns", 0), opened.get("p99_ns", 0),
            opened.get("p999_ns", 0), opened.get("n", 0))
        print(line)
        closed = leg.get("closed")
        if closed:
            print("%-18s closed p50 %8d ns  p99 %9d ns  p999 %9d ns  "
                  "tail gap (p99) %+d ns"
                  % ("", closed["p50_ns"], closed["p99_ns"],
                     closed["p999_ns"], leg.get("tail_gap_p99_ns", 0)))
        open_tcp = leg.get("open_tcp")
        if open_tcp:
            print("%-18s tcp    p50 %8d ns  p99 %9d ns  p999 %9d ns  (n=%d)"
                  % ("", open_tcp["p50_ns"], open_tcp["p99_ns"],
                     open_tcp["p999_ns"], open_tcp["n"]))
    print()
    for name in sorted(suite["decomposition"]):
        probe = suite["decomposition"][name]
        parts = probe["components_ns"]
        print("%-14s %s  %s" % (
            name,
            "reconciled" if probe["reconciled"] else "NOT RECONCILED",
            "  ".join("%s %d ns" % (key, parts[key])
                      for key in ("cpu_service", "nic_ring", "propagation",
                                  "stall"))))
    rungs = suite["rungs"]
    print("\nflow-cache rungs on %s: %s"
          % (rungs["leg"],
             "identical across current/uncached" if rungs["ok"]
             else "DIVERGED %r" % rungs["fingerprints"]))
    failed = False
    for name in sorted(suite.get("comparison", {})):
        row = suite["comparison"][name]
        for warning in row.get("warnings", ()):
            print("WARN [%s]: %s" % (name, warning))
        for error in row.get("errors", ()):
            print("ERROR [%s]: %s" % (name, error))
        if not row.get("ok", True):
            failed = True
    if write_baseline_too:
        print("baseline written to %s" % write_baseline(suite))
    print("\nreport written to %s" % path)
    # Fails on percentile-fingerprint drift, decomposition drift, any
    # unreconciled probe, and rung divergence; wall-clock drift and
    # missing baselines only warn (the honest-gate split of PR 6).
    return 1 if failed else 0


def _charts() -> str:
    from . import forwarding, latency, video
    from .figures import render_figure5, render_figure6, render_figure7
    sections = [
        render_figure5(latency.figure5(trips=5)),
        render_figure6(video.figure6(stream_counts=(1, 5, 10, 15, 20, 25),
                                     duration_s=0.3)),
        render_figure7(forwarding.figure7(trips=5)),
    ]
    return "\n\n".join(sections)


def main(argv) -> int:
    argv = list(argv)
    jobs = _jobs(argv)
    sim_jobs = _sim_jobs(argv)
    if "--charts" in argv:
        print(_charts())
        return 0
    if "--latency" in argv:
        return _latency(quick="--full" not in argv, jobs=jobs,
                        write_baseline_too="--write-baseline" in argv)
    if "--parallel-curve" in argv:
        return _parallel_curve(quick="--full" not in argv)
    if "--round-overhead" in argv:
        return _round_overhead()
    if "--speedup-smoke" in argv:
        return _speedup_smoke(quick="--full" not in argv)
    if "--wallclock" in argv:
        return _wallclock(quick="--full" not in argv, jobs=jobs,
                          sim_jobs=sim_jobs)
    if "--check" in argv:
        from .regression import check_all, wallclock_smoke
        from .report import format_table
        rows = check_all()
        print(format_table(rows, ["metric", "expected", "measured",
                                  "deviation", "tolerance", "ok"],
                           title="Golden-number regression check"))
        smoke = wallclock_smoke()
        print(format_table(smoke, ["metric", "expected", "measured",
                                   "deviation", "tolerance", "ok"],
                           title="Wall-clock smoke (slowdown warns, "
                                 "fingerprint drift fails)"))
        return 0 if all(row["ok"] for row in rows + smoke) else 1
    quick = "--full" not in argv
    print("Regenerating every table and figure from the paper "
          "(%s pass)...\n" % ("quick" if quick else "full"))
    print(run_everything(quick=quick, jobs=jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
