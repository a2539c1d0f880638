"""SLO harness: open-loop tail latency, judged on fingerprints.

``python -m repro.bench --latency`` runs a small matrix of open-loop
workloads at several offered loads, extracts p50/p99/p999 from the
request lifecycles (:mod:`repro.obs.slo`), prints them (:func:`render`;
EXPERIMENTS.md holds that table) and judges them against the one
committed golden, ``benchmarks/latency_baseline.json``.  Three design
decisions make every verdict a statement about simulated time:

* **Percentile fingerprints are integers.**  Every leg's p50/p99/p999 is
  stated in simulated nanoseconds; they are pure functions of the code
  and the seeds, byte-identical across hosts and reruns, and so is the
  whole report.  Drift against the golden is an *error*.
* **Every open-loop leg carries a closed-loop twin** run in the same
  process from the same arrival draws.  The twin self-clocks (a request
  departs one drawn gap after the previous *reply*), so it cannot queue
  behind itself; the open leg keeps the drawn schedule regardless of
  completions, which is what users actually do to a server.  The
  ``tail_gap_p99_ns`` between them is the report's headline: mean load
  is matched by construction, the tails are not.
* **Decomposition probes reconcile bit-exactly.**  Closed-loop probes
  run under a :class:`~repro.obs.slo.SloTracker` and every completed
  request must satisfy ``sum(components) == total_ns`` in integer
  nanoseconds -- an error otherwise.

The scenarios are registry records (:mod:`repro.bench.workloads`), each
run at its one scale: the ``udp_echo@g<gap>`` and ``tcp_objects@g<gap>``
legs with their ``/closed`` twins, and the ``fabric_fat_tree`` workload
at its own built-in load (no closed twin: its arrival schedule *is* the
experiment).

The gate lives here too (:func:`rows`, :func:`gate`, :func:`judge`): the
report reduces to rows of ``{name: {"fingerprint": ...}}``, and the
golden is those rows and nothing else (:func:`write_baseline`).  A
golden that is missing or unreadable, or a row it lacks, is an error.
How fast this host ran the simulator is ``perfbench/``'s question.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from ..obs.slo import RequestLifecycle, SloTracker
from .report import format_table
from .workloads import WORKLOADS, Workload, run_once

__all__ = ["BASELINE_PATH", "SCHEMA_VERSION", "LEGS", "PROBES", "run_leg",
           "run_probe", "run_latency_suite", "render", "rows",
           "load_baseline", "gate", "judge", "write_baseline"]

#: src/repro/bench/slo.py -> the repository root.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
BASELINE_PATH = os.path.join(_REPO_ROOT, "benchmarks", "latency_baseline.json")

#: The golden's schema.  11 dropped the unjudged host fields (the
#: ``host`` block and each leg's ``wall_s``); 12 has one scale, so its
#: rows sit at the top level.
SCHEMA_VERSION = 12

#: open-loop legs (registry names): the paced echoes and object
#: fetches, each with a ``/closed`` twin, and the fabric.
LEGS = tuple(name for name in WORKLOADS
             if "@" in name and not name.endswith("/closed")) + (
    "fabric_fat_tree",)

#: closed-loop decomposition probes (registry names).
PROBES = ("udp_clean", "tcp_clean", "tcp_impaired")


def _observed(record: Workload, tracked: bool = False) -> RequestLifecycle:
    """Run ``record`` reporting its requests to a fresh lifecycle (under
    an :class:`SloTracker` when ``tracked``); returns the lifecycle."""
    observers = {}

    def instrument(bed):
        if tracked:
            observers["tracker"] = SloTracker(bed.engine).attach(
                bed.hosts, bed.nics)
        observers["lifecycle"] = RequestLifecycle(
            bed.engine, observers.get("tracker"))
        return observers["lifecycle"]

    run_once(record, record.scale, instrument)
    if tracked:
        observers["tracker"].detach()
    return observers["lifecycle"]


def _percentiles(lifecycle: RequestLifecycle, kind: str) -> Dict:
    """One side's percentile record: simulated-time integers only.
    ``requested`` counts every request the run began, of any kind."""
    record = dict(lifecycle.percentiles_ns(kind))
    record["requested"] = len(lifecycle.completed) + lifecycle.open_requests
    record["completed"] = len(lifecycle.samples_ns(kind))
    record["still_open"] = lifecycle.open_requests
    return record


def run_leg(name: str) -> Dict:
    """One open-loop leg plus, where the registry has one, its closed
    twin."""
    record = WORKLOADS[name]
    lifecycle = _observed(record)
    leg = {"open": _percentiles(lifecycle, record.kinds[0])}
    if len(record.kinds) > 1:
        leg["open_tcp"] = _percentiles(lifecycle, record.kinds[1])
    twin = WORKLOADS.get(name + "/closed")
    if twin is not None:
        lifecycle = _observed(twin)
        leg["closed"] = _percentiles(lifecycle, twin.kinds[0])
        leg["tail_gap_p99_ns"] = leg["open"]["p99_ns"] - leg["closed"]["p99_ns"]
    return leg


def run_probe(name: str) -> Dict:
    """One closed-loop probe with the queueing decomposition attached."""
    record = WORKLOADS[name]
    lifecycle = _observed(record, tracked=True)
    errors = [
        "request %r does not reconcile: components sum to %d ns, "
        "end-to-end is %d ns"
        % (request, request.component_sum_ns(), request.total_ns)
        for request in lifecycle.completed
        if request.component_sum_ns() != request.total_ns]
    return {
        "percentiles": _percentiles(lifecycle, record.kinds[0]),
        "components_ns": lifecycle.component_totals_ns(record.kinds[0]),
        "reconciled": not errors,
        "errors": errors,
    }


def run_latency_suite() -> Dict:
    """Run every leg and probe; returns the report."""
    return {"legs": {name: run_leg(name) for name in LEGS},
            "decomposition": {name: run_probe(name) for name in PROBES}}


#: the decomposition's components, in the order the table prints them.
_COMPONENTS = ("cpu_service", "nic_ring", "propagation", "stall")


def render(report: Dict) -> str:
    """The report as two tables, legs and probes, in simulated ns."""
    legs = []
    for name in sorted(report["legs"]):
        leg = report["legs"][name]
        for side in ("open", "open_tcp", "closed"):
            if side in leg:
                legs.append(dict(leg[side], leg=name, side=side))
        if "tail_gap_p99_ns" in leg:
            legs[-1]["tail_gap_p99_ns"] = "%+d" % leg["tail_gap_p99_ns"]
    probes = [dict(probe["percentiles"], probe=name,
                   reconciled="bit-exact" if probe["reconciled"] else "NO",
                   **probe["components_ns"])
              for name, probe in sorted(report["decomposition"].items())]
    return "\n\n".join((
        format_table(legs, ("leg", "side", "n", "p50_ns", "p99_ns",
                            "p999_ns", "tail_gap_p99_ns"),
                     title="Latency legs: open loop, then its closed twin "
                           "on the same arrival draws (simulated ns)"),
        format_table(probes, ("probe", "n", "p50_ns", "p99_ns")
                     + _COMPONENTS + ("reconciled",),
                     title="Decomposition probes: closed loop, components "
                           "totalled over n requests (simulated ns)")))


#: the integer simulated-time fields a side's fingerprint consists of.
_FINGERPRINT_KEYS = ("n", "p50_ns", "p99_ns", "p999_ns", "max_ns",
                     "sum_ns", "requested", "completed", "still_open")


def side_fingerprint(record: Dict) -> Dict:
    """The gated subset of one side's record."""
    return {key: record[key] for key in _FINGERPRINT_KEYS if key in record}


def rows(report: Dict) -> Dict:
    """The latency report as gate rows: a leg's fingerprint is its sides'
    percentiles; a probe's adds the component totals and brings its
    reconciliation errors along."""
    gated = {}
    for name, leg in report["legs"].items():
        gated[name] = {
            "fingerprint": {side: side_fingerprint(leg[side])
                            for side in ("open", "closed", "open_tcp")
                            if side in leg}}
    for name, probe in report["decomposition"].items():
        gated["decomposition:" + name] = {
            "fingerprint": {
                "percentiles": side_fingerprint(probe["percentiles"]),
                "components_ns": probe["components_ns"]},
            "errors": probe["errors"],
        }
    return gated


# ---------------------------------------------------------------------------
# the gate, the golden's loader and its writer
# ---------------------------------------------------------------------------

def load_baseline(path: str) -> Dict:
    """The committed golden at ``path``.  A file that is missing or does
    not parse raises, naming it: the gate has nothing to judge against."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as error:
        raise ValueError("baseline %s is unreadable: %s" % (path, error))


def _mismatch(fresh, reference) -> str:
    """Name what differs: the keys, when both sides are dicts."""
    if isinstance(fresh, dict) and isinstance(reference, dict):
        keys = sorted(key for key in set(fresh) | set(reference)
                      if fresh.get(key) != reference.get(key))
        return "%s: %r != %r" % (", ".join(keys),
                                 {key: fresh.get(key) for key in keys},
                                 {key: reference.get(key) for key in keys})
    return "%r != %r" % (fresh, reference)


def gate(gated: Dict[str, Dict], golden: Dict[str, Dict]) -> Dict[str, List]:
    """Judge ``gated`` rows against the golden's rows; returns each
    row's errors (an empty list when it passes).

    Fingerprint drift is an error, and so is a row the golden lacks; a
    row may arrive with ``errors`` of its own (an unreconciled probe).
    """
    verdicts = {}
    for name, row in gated.items():
        errors = list(row.get("errors", ()))
        base = golden.get(name)
        if base is None:
            errors.append("no committed baseline for %r" % name)
        elif row["fingerprint"] != base["fingerprint"]:
            errors.append("simulated-time fingerprint drifted from the "
                          "committed baseline on %s"
                          % _mismatch(row["fingerprint"], base["fingerprint"]))
        verdicts[name] = errors
    return verdicts


def judge(report: Dict, path: str = BASELINE_PATH) -> Dict[str, List]:
    """Gate ``report`` against the committed golden at ``path``; returns
    each row's errors."""
    return gate(rows(report), load_baseline(path))


def write_baseline(report: Dict, path: str = BASELINE_PATH) -> str:
    """Write ``report`` as the golden at ``path``: the fingerprints the
    gate reads and the schema version, nothing else; returns the path."""
    golden = {name: {"fingerprint": row["fingerprint"]}
              for name, row in rows(report).items()}
    golden["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
