"""Command-line entry: ``python -m repro.bench [mode] [options]``.

Without a mode flag, regenerates every table and figure from the paper at
the scales EXPERIMENTS.md records.  ``--check`` runs the claims ledger's
golden pins.  The one suite (``--latency``) takes ``--quick`` /
``--full``, writes ``BENCH_latency.json`` at the repository root and
exits non-zero when its gate (:mod:`repro.bench.slo`) records an error.
Nothing here reads a clock: how fast the simulator runs is
``perfbench/``'s question (``python3 perfbench/run.py``).
"""

import argparse
import sys


def _latency(args) -> int:
    """Run the suite, print its legs, probes and the gate's verdict rows,
    write the report; the exit code."""
    from . import slo
    suite = slo.run_latency_suite(quick=not args.full)
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
    print()
    for name in sorted(suite["comparison"]):
        row = suite["comparison"][name]
        for warning in row["warnings"]:
            print("WARN [%s]: %s" % (name, warning))
        for error in row["errors"]:
            print("ERROR [%s]: %s" % (name, error))
    if args.write_baseline:
        print("baseline written to %s" % slo.write_baseline(
            suite, slo.BASELINE_PATH))
    print("report written to %s" % slo.write_json(suite, slo.REPORT_PATH))
    return 0 if suite["ok"] else 1


def _check(args) -> int:
    from .claims import CLAIMS, verdict
    from .report import format_table
    rows = [verdict(claim) for claim in sorted(CLAIMS)
            if claim.kind == "golden"]
    print(format_table(
        rows, ["metric", "expected", "measured", "deviation", "tolerance",
               "ok"], title="Golden-number regression check"))
    return 0 if all(row["ok"] for row in rows) else 1


def _paper_report(args) -> int:
    from .report import run_everything
    print("Regenerating every table and figure from the paper...\n")
    print(run_everything())
    return 0


#: mode flag, its entry point, its help.  At most one may be given.
_MODES = (
    ("--check", _check,
     "golden-number regression check (exit != 0 on drift)"),
    ("--latency", _latency,
     "SLO tail-latency suite: open- vs closed-loop legs and decomposition "
     "probes; writes BENCH_latency.json (--full adds the mega_flows leg)"),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's experiments, or run the "
                    "latency suite.")
    mode = parser.add_mutually_exclusive_group()
    for flag, run, text in _MODES:
        mode.add_argument(flag, dest="run", action="store_const", const=run,
                          help=text)
    parser.set_defaults(run=_paper_report)
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help="with --latency: small scales (the default)")
    scale.add_argument("--full", action="store_true",
                       help="with --latency: full scales")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --latency: refresh the committed "
                             "baseline under benchmarks/ from this run")
    return parser


def main(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.write_baseline and args.run is not _latency:
        parser.error("--write-baseline needs --latency")
    if (args.quick or args.full) and args.run is not _latency:
        parser.error("--quick / --full need --latency (the report has one "
                     "scale)")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
