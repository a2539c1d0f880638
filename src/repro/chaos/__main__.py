"""CLI for the chaos harness.

    python -m repro.chaos --quick              # fixed quick corpus
    python -m repro.chaos --count 50 --seed 7  # bigger sampled corpus
    python -m repro.chaos --replay BUNDLE.json # one-command repro
    python -m repro.chaos --quick --sabotage tamper_stream   # harness demo

Exit status is 0 iff every campaign passed.  Failing campaigns write
repro bundles (JSON spec + violations + decoded trace tail) under
``--bundle-dir``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List

from .bundle import DEFAULT_BUNDLE_DIR, load_bundle, write_bundle
from .campaign import (build_fabric_corpus, build_quick_corpus, run_campaign,
                       run_corpus)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded network-impairment campaigns with invariant "
                    "checking")
    parser.add_argument("--quick", action="store_true",
                        help="run the fixed quick corpus (27 campaigns + "
                             "6 fat-tree fabric campaigns)")
    parser.add_argument("--count", type=int, default=None,
                        help="number of corpus campaigns (default 27)")
    parser.add_argument("--seed", type=int, default=1996,
                        help="base seed for the corpus (default 1996)")
    parser.add_argument("--replay", metavar="BUNDLE",
                        help="re-run the campaign from a repro bundle")
    parser.add_argument("--bundle-dir", default=DEFAULT_BUNDLE_DIR,
                        help="where failing campaigns write repro bundles")
    parser.add_argument("--sabotage", default=None,
                        choices=["tamper_stream", "leak_timer"],
                        help="deliberately break an invariant in the first "
                             "campaign (exercises the bundle machinery)")
    parser.add_argument("--json", action="store_true",
                        help="dump the full verdict list as JSON to stdout")
    return parser


def _summarize(verdicts: List[dict], bundle_dir: str) -> int:
    failures = 0
    for verdict in verdicts:
        spec = verdict["spec"]
        label = "%s %s/%s/%s seed=%d" % (
            spec["name"], spec["os_name"], spec["device"], spec["workload"],
            spec["seed"])
        if verdict["passed"]:
            print("PASS  %s" % label)
        else:
            failures += 1
            path = write_bundle(verdict, bundle_dir)
            print("FAIL  %s" % label)
            for violation in verdict["violations"]:
                print("      %s" % violation)
            print("      repro bundle: %s" % path)
    print("%d/%d campaigns passed" % (len(verdicts) - failures, len(verdicts)))
    return failures


def main(argv: List[str] = None) -> int:
    args = _parser().parse_args(argv)

    if args.replay:
        spec = load_bundle(args.replay)
        print("replaying %s (seed=%d)" % (spec.name, spec.seed))
        verdict = run_campaign(spec)
        if args.json:
            json.dump(verdict, sys.stdout, indent=2, sort_keys=True)
            print()
        failures = _summarize([verdict], args.bundle_dir)
        return 1 if failures else 0

    count = args.count if args.count is not None else 27
    specs = build_quick_corpus(base_seed=args.seed, count=count)
    if args.quick:
        # The fixed quick corpus carries the multi-hop fat-tree
        # campaigns; explicit --count N runs stay at exactly N.
        specs += build_fabric_corpus(base_seed=args.seed)
    if args.sabotage:
        specs[0] = dataclasses.replace(specs[0], sabotage=args.sabotage)

    verdicts = run_corpus(specs)
    if args.json:
        json.dump(verdicts, sys.stdout, indent=2, sort_keys=True)
        print()
    failures = _summarize(verdicts, args.bundle_dir)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
