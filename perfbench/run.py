#!/usr/bin/env python3
"""perfbench: the repo's one benchmark command.

    python3 perfbench/run.py                       # every workload, both passes
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

With one ``--workload`` and a ``--trace`` it measures in this process
and prints the result as the last line of standard output: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(``--trace 0``: the end-to-end metrics; ``--trace 1``: the per-layer
ones).  Otherwise it runs each selected workload in a fresh interpreter,
one at a time, prints every metric by name with its unit, and appends
the runs to ``--out``.  It exits non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPT = os.path.abspath(__file__)

DEFAULT_SECONDS = 10


def _bootstrap() -> None:
    """Import ``perfbench`` as a package and ``repro`` from ``src/``.

    Run as a script, ``sys.path[0]`` is this directory, where ``trace.py``
    would shadow the standard library's ``trace``; the repo root takes
    its place.
    """
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int,
                        help="drives every generated input (default: the seed "
                             "expected.json pins)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed reps run until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", help="append the runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files; exit 1 if B is worse")
    parser.add_argument("--fault",
                        help="inject a harness fault, to see a check fail")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected.json from this checkout")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one run, in this process
# ---------------------------------------------------------------------------

def _single(args: argparse.Namespace, harness) -> int:
    name = args.workload[0]
    if args.setup_only:
        harness.setup_only(name, args.seed)
        return 0
    if args.trace == 0:
        result = harness.measure_end_to_end(name, args.seed, args.seconds,
                                            SCRIPT, args.fault)
    else:
        result = harness.measure_per_layer(name, args.seed, args.fault)
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print("FAILED CHECK: " + problem, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_expected(harness) -> int:
    with open(harness.EXPECTED_PATH, "w") as fh:
        json.dump(harness.expected_pins(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote " + harness.EXPECTED_PATH)
    return 0


# ---------------------------------------------------------------------------
# every workload, one fresh interpreter each
# ---------------------------------------------------------------------------

def _child(name: str, seed: int, trace: int, args: argparse.Namespace) -> Dict:
    command = [sys.executable, SCRIPT, "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.fault:
        command += ["--fault", args.fault]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError("%s exited %d without a result"
                           % (" ".join(command), done.returncode))
    record = json.loads(lines[-1])
    record.update(json.loads(lines[-2]), workload=name, seed=seed, trace=trace)
    return record


def _print_run(record: Dict) -> None:
    print("%s  seed %d  trace %d  %s  failed %d of %d"
          % (record["workload"], record["seed"], record["trace"],
             "ok" if record["correct"] else "FAILED",
             record["failed"], record["attempted"]))
    detail = record["detail"]
    print("    op: %s; %s" % (detail["op"], detail["loop"]))
    if "reps" in detail:
        print("    %d timed reps of %d ops, median %.2f s; raw ops/s median "
              "%.6g, quartiles %.6g .. %.6g"
              % (detail["reps"], detail["ops_per_rep"], detail["rep_wall_s"],
                 detail["raw_ops_per_s"], detail["raw_ops_per_s_q1"],
                 detail["raw_ops_per_s_q3"]))
    for name, metric in record["metrics"].items():
        print("    %-36s %16.6f %s" % (name, metric["value"], metric["unit"]))
    for problem in detail["problems"]:
        print("    FAILED CHECK: " + problem)


def _suite(args: argparse.Namespace, names: List[str]) -> int:
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    for name in names:
        for trace in traces:
            record = _child(name, args.seed, trace, args)
            _print_run(record)
            runs.append(record)
    if args.out:
        # Appends, so that alternating parent/change pairs collect in one
        # file per side.
        earlier = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                earlier = json.load(fh)["runs"]
        with open(args.out, "w") as fh:
            json.dump({"runs": earlier + runs}, fh, indent=1)
            fh.write("\n")
    return 0 if all(record["correct"] for record in runs) else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

class _Side:
    """One ``--out`` file, as ``--compare`` reads it."""

    def __init__(self, path: str):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
        #: (workload, end-to-end metric) -> one value per ``--trace 0`` run
        self.samples: Dict = {}
        #: workload -> [ops failed, ops attempted], over every run
        self.tally: Dict[str, List[int]] = {}
        #: (workload, seed, scale) -> the simulated fingerprints seen there
        self.fingerprints: Dict = {}
        for run in runs:
            workload = run["workload"]
            tally = self.tally.setdefault(workload, [0, 0])
            tally[0] += run["failed"]
            tally[1] += run["attempted"]
            for scale, fingerprint in run["detail"]["fingerprints"].items():
                seen = self.fingerprints.setdefault(
                    (workload, run["seed"], scale), [])
                if fingerprint not in seen:
                    seen.append(fingerprint)
            if run["trace"] == 0:
                for name, metric in run["metrics"].items():
                    self.samples.setdefault((workload, name), []).append(
                        metric["value"])

    def failed_share(self, workload: str) -> float:
        failed, attempted = self.tally[workload]
        return failed / attempted


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _compare(path_a: str, path_b: str) -> int:
    from perfbench.metrics import END_TO_END
    a, b = _Side(path_a), _Side(path_b)
    worse = 0
    row = "%-18s %-17s %14s %14s %8s %6s %7s %7s  %s"
    print(row % ("workload", "metric", "A median", "B median", "change",
                 "bound", "A iqr", "B iqr", "verdict"))
    for workload in sorted(a.tally):
        if workload not in b.tally:
            print(row % (workload, "", "", "missing", "", "", "", "", "worse"))
            worse += 1
            continue
        for spec in END_TO_END:
            key = (workload, spec["name"])
            if key not in a.samples:
                continue
            if key not in b.samples:
                print(row % (key + ("", "missing", "", "", "", "", "worse")))
                worse += 1
                continue
            median_a = statistics.median(a.samples[key])
            median_b = statistics.median(b.samples[key])
            change = (median_b - median_a) / median_a
            worsening = -change if spec["better"] == "higher" else change
            spreads = [_spread(a.samples[key]), _spread(b.samples[key])]
            if worsening > spec["bound"]:
                verdict = "worse"
                worse += 1
            elif worsening < -spec["bound"]:
                verdict = "better"
            elif max(spread or 0.0 for spread in spreads) > spec["bound"]:
                # Runs that differ among themselves by more than the bound
                # cannot show the metric unchanged.
                verdict = "unresolved"
            else:
                verdict = "within"
            spreads = ["n/a" if spread is None else "%.3f" % spread
                       for spread in spreads]
            print(row % (workload, spec["name"], "%.6f" % median_a,
                         "%.6f" % median_b, "%+.4f" % change,
                         "%.2f" % spec["bound"], spreads[0], spreads[1],
                         verdict))

        share_a, share_b = a.failed_share(workload), b.failed_share(workload)
        verdict = "worse" if share_b > share_a else "within"
        worse += verdict == "worse"
        print(row % (workload, "failed_share", "%.6f" % share_a,
                     "%.6f" % share_b, "", "0.00", "", "", verdict))

        # The simulated results are exact: at one (seed, scale) both sides
        # must have produced the identical fingerprint, or the model changed.
        shared = [key for key in a.fingerprints
                  if key[0] == workload and key in b.fingerprints]
        differing = [key for key in shared
                     if a.fingerprints[key] != b.fingerprints[key]]
        if not shared:
            verdict = "worse: no (seed, scale) in common, model not compared"
        elif differing:
            verdict = "worse: differs at seed %d scale %s" % differing[0][1:]
        else:
            verdict = "equal"
        worse += verdict != "equal"
        print(row % (workload, "sim_fingerprint", len(shared),
                     len(shared) - len(differing), "", "0.00", "", "",
                     verdict))
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _bootstrap()
    if args.compare:
        return _compare(*args.compare)
    try:
        from perfbench import harness
    except ModuleNotFoundError as error:
        print("perfbench: cannot import the program under test (%s); run "
              "from a checkout that has src/repro" % error, file=sys.stderr)
        return 2
    names = args.workload or list(harness.WORKLOADS)
    unknown = [name for name in names if name not in harness.WORKLOADS]
    if unknown or args.fault not in (None,) + harness.FAULTS:
        print("perfbench: unknown workload or fault; workloads are %s, "
              "faults %s" % (", ".join(harness.WORKLOADS),
                             ", ".join(harness.FAULTS)), file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = harness.DEFAULT_SEED
    if args.write_expected:
        return _write_expected(harness)
    single = len(names) == 1 and args.trace is not None
    if args.setup_only or (single and not args.out):
        return _single(args, harness)
    return _suite(args, names)


if __name__ == "__main__":
    sys.exit(main())
