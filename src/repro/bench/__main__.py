"""Command-line entry: ``python -m repro.bench [mode] [options]``.

Without a mode flag, regenerates every table and figure from the paper.
``--jobs N`` output is byte-identical to ``--jobs 1``; the two suites
(``--latency``, ``--parallel-curve``) write their ``BENCH_*.json`` at the
repository root and exit non-zero when the gate
(:mod:`repro.bench.gate`) records an error.  How fast the simulator runs
is ``perfbench/``'s question (``python3 perfbench/run.py``).
"""

import argparse
import sys

from .gate import write_baseline, write_json


def _print_host(report) -> None:
    host = report["host"]
    print("host: %s %s on %s %s\n" % (host["implementation"], host["python"],
                                      host["machine"], host["system"]))


def _finish(report, suite, write_baseline_too: bool = False) -> int:
    """Print the gate's verdict rows, write the report; the exit code."""
    print()
    for name in sorted(report["comparison"]):
        row = report["comparison"][name]
        for warning in row["warnings"]:
            print("WARN [%s]: %s" % (name, warning))
        for error in row["errors"]:
            print("ERROR [%s]: %s" % (name, error))
    if write_baseline_too:
        print("baseline written to %s" % write_baseline(
            report, suite.rows, suite.BASELINE_PATH))
    print("report written to %s" % write_json(report, suite.REPORT_PATH))
    return 0 if report["ok"] else 1


def _latency(args) -> int:
    from . import slo
    suite = slo.run_latency_suite(quick=not args.full, jobs=args.jobs)
    _print_host(suite)
    for name in sorted(suite["legs"]):
        leg = suite["legs"][name]
        for label, side in (("open", "open"), ("closed", "closed"),
                            ("tcp", "open_tcp")):
            if side in leg:
                print("%-18s %-6s p50 %8d ns  p99 %9d ns  p999 %9d ns  (n=%d)"
                      % (name if side == "open" else "", label,
                         leg[side]["p50_ns"], leg[side]["p99_ns"],
                         leg[side]["p999_ns"], leg[side]["n"]))
        if "tail_gap_p99_ns" in leg:
            print("%-18s tail gap (p99) %+d ns" % ("", leg["tail_gap_p99_ns"]))
    print()
    for name in sorted(suite["decomposition"]):
        probe = suite["decomposition"][name]
        print("%-14s %s  %s" % (
            name, "reconciled" if probe["reconciled"] else "NOT RECONCILED",
            "  ".join("%s %d ns" % (key, probe["components_ns"][key])
                      for key in ("cpu_service", "nic_ring", "propagation",
                                  "stall"))))
    return _finish(suite, slo, args.write_baseline)


def _parallel_curve(args) -> int:
    from . import parallel
    report = parallel.run_curve(quick=not args.full)
    for leg in report["legs"]:
        print("%s x%-2d %10.3f s serial  %8.3f s parallel  %.2fx speedup  "
              "[%s]" % (leg["workload"], leg["sim_jobs"],
                        leg.get("serial", leg["oracle"])["wall_s"],
                        leg["parallel"]["wall_s"], leg["speedup"],
                        leg["executor"]))
    return _finish(report, parallel)


def _check(args) -> int:
    from .claims import CLAIMS, verdict
    from .report import format_table
    rows = [verdict(claim) for claim in sorted(CLAIMS)
            if claim.kind == "golden"]
    print(format_table(
        rows, ["metric", "expected", "measured", "deviation", "tolerance",
               "ok"], title="Golden-number regression check"))
    return 0 if all(row["ok"] for row in rows) else 1


def _charts(args) -> int:
    from . import forwarding, latency, video
    from .figures import render_figure5, render_figure6, render_figure7
    print("\n\n".join([
        render_figure5(latency.figure5(trips=5)),
        render_figure6(video.figure6(stream_counts=(1, 5, 10, 15, 20, 25),
                                     duration_s=0.3)),
        render_figure7(forwarding.figure7(trips=5)),
    ]))
    return 0


def _paper_report(args) -> int:
    from .report import run_everything
    print("Regenerating every table and figure from the paper "
          "(%s pass)...\n" % ("full" if args.full else "quick"))
    print(run_everything(quick=not args.full, jobs=args.jobs))
    return 0


#: mode flag, its entry point, its help.  At most one may be given.
_MODES = (
    ("--charts", _charts, "ASCII renderings of figures 5-7"),
    ("--check", _check,
     "golden-number regression check (exit != 0 on drift)"),
    ("--latency", _latency,
     "SLO tail-latency suite: open- vs closed-loop legs and decomposition "
     "probes; writes BENCH_latency.json (--full adds the mega_flows leg)"),
    ("--parallel-curve", _parallel_curve,
     "sharded many_flows at jobs 1/2/4 plus a mega_flows leg at jobs=2; "
     "writes BENCH_parallel.json; fails on divergence of a forked run from "
     "its in-process oracle and, with >= 2 cores visible and a serial side "
     "of >= 2 s, on the 1.3x jobs=2 floor"),
)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's experiments, or run one of the "
                    "self-benchmark suites.")
    mode = parser.add_mutually_exclusive_group()
    for flag, run, text in _MODES:
        mode.add_argument(flag, dest="run", action="store_const", const=run,
                          help=text)
    parser.set_defaults(run=_paper_report)
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help="small scales (the default)")
    scale.add_argument("--full", action="store_true",
                       help="the scales EXPERIMENTS.md records")
    parser.add_argument("--jobs", type=_positive, default=1, metavar="N",
                        help="shard the report's sections or --latency's "
                             "legs across N worker processes")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --latency: refresh the committed "
                             "baseline under benchmarks/ from this run")
    return parser


def main(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.write_baseline and args.run is not _latency:
        parser.error("--write-baseline needs --latency")
    # Like --quick, --jobs 1 is the explicit default and goes anywhere.
    if args.jobs > 1 and args.run not in (_paper_report, _latency):
        parser.error("--jobs needs a mode that shards: the report or "
                     "--latency (--parallel-curve picks its own counts)")
    if args.full and args.run in (_check, _charts):
        parser.error("--full needs a mode with scales; --check and --charts "
                     "have none")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
