"""CLI for the observability layer.

    python -m repro.obs --workload tcp_bulk --folded out.folded
    python -m repro.obs --workload udp_pingpong --metrics metrics.json
    python -m repro.obs --workload tcp_bulk --require checksum,dispatch,copy,device-io
    python -m repro.obs --check-schema

Runs a ``repro.bench.workloads`` registry workload with the CPU profiler (and
optionally the span tracer) attached, then writes the folded-stack file,
the metrics-registry snapshot, and/or the span timeline.  ``--require``
exits non-zero unless every named charge category shows up in the
profile (``device-io`` is an alias for the driver categories), which is
how CI asserts the flamegraph actually contains the paper's Figure 6
cost classes.  A requirement may also name a *metrics* condition
(:data:`METRIC_REQUIREMENTS`): ``compiled-path`` passes only when the
registry snapshot shows raises actually served by generated code, which
is how CI asserts the codegen fast path was exercised rather than
silently skipped.  ``--check-schema`` instruments both OS models and a
fat-tree fabric and fails if a registered metric is missing from the
documented export schema, or a schema row is registered by none of them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .profiler import CpuProfiler
from .schema import EXPORT_SCHEMA, undocumented_metrics
from .spans import SpanTracer
from .wire import instrument_testbed

#: ``--require`` aliases: one name standing for any of several categories.
CATEGORY_ALIASES = {"device-io": ("driver", "driver-pio")}

#: ``--require`` names satisfied by a *nonzero metric* instead of a
#: charge category: the named requirement passes when any listed
#: registry metric is > 0 in the snapshot.
METRIC_REQUIREMENTS = {
    "compiled-path": ("spin.flowcache.compiled.replays",
                      "spin.flowcache.compiled.scan_raises"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="profile a bench workload on the simulated CPUs",
    )
    parser.add_argument(
        "--workload",
        default=None,
        help="registry workload to profile (e.g. udp_pingpong, tcp_bulk)",
    )
    parser.add_argument("--folded", default=None, help="write folded stacks (flamegraph input)")
    parser.add_argument("--metrics", default=None, help="write the metrics registry snapshot JSON")
    parser.add_argument("--spans", default=None, help="write the span-tracer timeline text")
    parser.add_argument("--full", action="store_true", help="full workload scale (default: quick)")
    parser.add_argument(
        "--require",
        default=None,
        help="comma-separated charge categories that must appear in the profile",
    )
    parser.add_argument(
        "--check-schema",
        action="store_true",
        help="instrument both OS models and a fat-tree; fail unless registered == documented",
    )
    return parser


def check_schema() -> int:
    """Instrument a spin, a unix and a fat-tree bed; what they register
    and the rows of ``EXPORT_SCHEMA`` must be the same set."""
    from ..bench.testbed import build_testbed
    from ..fabric import fat_tree

    failures = 0
    registered = set()
    for label, bed in (
        ("spin", build_testbed("spin", "ethernet")),
        ("unix", build_testbed("unix", "ethernet")),
        ("fat_tree", fat_tree(4)),
    ):
        registry = instrument_testbed(bed)
        registered.update(registry.names())
        missing = undocumented_metrics(registry)
        if missing:
            failures += 1
            print(
                "%s: %d metric(s) missing from EXPORT_SCHEMA: %s"
                % (label, len(missing), ", ".join(missing))
            )
        else:
            print("%s: all %d registered metrics documented" % (label, len(registry)))
    unpublished = sorted(set(EXPORT_SCHEMA) - registered)
    if unpublished:
        failures += 1
        print(
            "%d EXPORT_SCHEMA row(s) no bed registers: %s"
            % (len(unpublished), ", ".join(unpublished))
        )
    else:
        print("all %d EXPORT_SCHEMA rows registered by some bed" % len(EXPORT_SCHEMA))
    return 1 if failures else 0


def profile_workload(name: str, quick: bool = True, with_spans: bool = False):
    """Run ``name`` instrumented; returns (record, profiler, registry, tracer)."""
    from ..bench.workloads import run_workload

    state = {}

    def instrument(bed) -> None:
        profiler = CpuProfiler()
        profiler.attach(bed.hosts)
        state["profiler"] = profiler
        state["registry"] = instrument_testbed(bed)
        if with_spans:
            tracer = SpanTracer(bed.engine)
            tracer.attach(bed.hosts, nics=getattr(bed, "nics", ()))
            state["tracer"] = tracer

    record = run_workload(name, quick=quick, instrument=instrument)
    return record, state["profiler"], state["registry"], state.get("tracer")


def _missing_categories(required: List[str], present,
                        metrics=None) -> List[str]:
    """Required names absent from the profile (and metrics snapshot).

    ``present`` holds the charged categories; ``metrics`` is the
    registry snapshot consulted for :data:`METRIC_REQUIREMENTS` names,
    which are satisfied by any listed metric being nonzero.
    """
    def metric_value(metric):
        entry = (metrics or {}).get(metric)
        if isinstance(entry, dict):  # registry snapshot {"type", "value"}
            return entry.get("value")
        return entry

    missing = []
    for name in required:
        if name in METRIC_REQUIREMENTS:
            wanted = METRIC_REQUIREMENTS[name]
            if not any(metric_value(metric) for metric in wanted):
                missing.append(name)
            continue
        wanted = CATEGORY_ALIASES.get(name, (name,))
        if not any(category in present for category in wanted):
            missing.append(name)
    return missing


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.check_schema:
        return check_schema()
    if not args.workload:
        _parser().print_usage()
        print("error: --workload (or --check-schema) is required", file=sys.stderr)
        return 2

    record, profiler, registry, tracer = profile_workload(
        args.workload, quick=not args.full, with_spans=args.spans is not None
    )

    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write(profiler.folded_text())
        print("wrote %d folded stacks to %s" % (len(profiler.folded_lines()), args.folded))
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(registry.to_json())
            fh.write("\n")
        print("wrote %d metrics to %s" % (len(registry), args.metrics))
    if args.spans and tracer is not None:
        with open(args.spans, "w") as fh:
            fh.write(tracer.render())
            fh.write("\n")
        print("wrote %d spans to %s" % (len(tracer.records), args.spans))

    categories = profiler.categories()
    total = sum(categories.values())
    print("workload %s (scale %d): %d events" % (args.workload, record["scale"], record["events"]))
    busy = profiler.busy_us()
    print("charged %.2f us across %d categories; busy %.2f us" % (total, len(categories), busy))
    for category in sorted(categories, key=categories.get, reverse=True):
        share = 100.0 * categories[category] / total if total else 0.0
        print("  %-12s %12.2f us  %5.1f%%" % (category, categories[category], share))

    if args.require:
        required = [part.strip() for part in args.require.split(",") if part.strip()]
        missing = _missing_categories(required, categories, registry.snapshot())
        if missing:
            print("MISSING required categories: %s" % ", ".join(missing), file=sys.stderr)
            return 1
        print("all required categories present: %s" % ", ".join(required))
    return 0


if __name__ == "__main__":
    sys.exit(main())
