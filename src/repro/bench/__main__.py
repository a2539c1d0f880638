"""Command-line entry: ``python -m repro.bench [mode] [options]``.

Without a mode flag, regenerates every table and figure from the paper at
the scales EXPERIMENTS.md records.  ``--check`` runs the claims ledger's
golden pins.  The one suite (``--latency``) prints its tables and its
verdict, writes no file, and exits non-zero when its gate
(:mod:`repro.bench.slo`) records an error; ``--write-baseline`` rewrites
the golden it is judged against from the run.  Nothing here reads a
clock: how fast the simulator runs is ``perfbench/``'s question
(``python3 perfbench/run.py``).
"""

import argparse
import os
import sys


def _latency(args) -> int:
    """Run the suite, print its tables and the gate's errors (after
    rewriting the golden, with ``--write-baseline``); the exit code."""
    from . import slo
    suite = slo.run_latency_suite()
    print(slo.render(suite))
    print()
    if args.write_baseline:
        print("baseline written to %s" % slo.write_baseline(suite))
    verdicts = slo.judge(suite)
    for name in sorted(verdicts):
        for error in verdicts[name]:
            print("ERROR [%s]: %s" % (name, error))
    failed = sum(1 for errors in verdicts.values() if errors)
    print("%d of %d rows match %s" % (len(verdicts) - failed, len(verdicts),
                                      os.path.relpath(slo.BASELINE_PATH)))
    return 1 if failed else 0


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
     "probes, judged against benchmarks/latency_baseline.json"),
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
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --latency: rewrite the committed "
                             "golden under benchmarks/ from this run")
    return parser


def main(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.write_baseline and args.run is not _latency:
        parser.error("--write-baseline needs --latency")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
