"""SLO harness: open-loop tail latency, judged on fingerprints.

``python -m repro.bench --latency`` runs a small matrix of open-loop
workloads at several offered loads, extracts p50/p99/p999 from the
request lifecycles (:mod:`repro.obs.slo`), judges them against the
committed baseline and writes ``BENCH_latency.json``.  Three design
decisions make every verdict a statement about simulated time:

* **Percentile fingerprints are integers.**  Every leg's p50/p99/p999 is
  stated in simulated nanoseconds; they are pure functions of the code
  and the seeds, byte-identical across hosts and reruns, and so is the
  whole report.  Drift against the committed baseline is an *error*.
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
  nanoseconds -- an error otherwise, not a warning.

The scenarios are registry records (:mod:`repro.bench.workloads`): the
``udp_echo@g<gap>`` and ``tcp_objects@g<gap>`` legs with their
``/closed`` twins, the ``fabric_fat_tree`` workload at its own built-in
load (no closed twin: its arrival schedule *is* the experiment), and,
under ``--full``, ``mega_flows``, whose deliberately withheld replies
make every request's latency a queue measurement.

The gate lives here too (:func:`rows`, :func:`gate`, :func:`judge`): the
report reduces to rows of ``{name: {"fingerprint": ...}}``, a committed
baseline is those rows and nothing else (:func:`write_baseline`), and
the report and its baseline share one schema version and one writer.
How fast this host ran the simulator is ``perfbench/``'s question.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List, Optional

from ..obs.slo import RequestLifecycle, SloTracker
from .workloads import WORKLOADS, Workload, run_once

__all__ = ["REPORT_PATH", "BASELINE_PATH", "SCHEMA_VERSION", "LEGS",
           "PROBES", "leg_names", "run_leg", "run_probe",
           "run_latency_suite", "rows", "load_baseline", "write_json",
           "gate", "judge", "write_baseline"]

#: src/repro/bench/slo.py -> the repository root.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_latency.json")
BASELINE_PATH = os.path.join(_REPO_ROOT, "benchmarks", "latency_baseline.json")

#: One version for the report and its baseline.  10 dropped every
#: judged host-speed field; 11 drops the unjudged ones (the ``host``
#: block and each leg's ``wall_s``).
SCHEMA_VERSION = 11

#: leg name -> registry record.  The two big workloads run at this
#: suite's own scales: datagrams per host for the fabric, and for
#: ``mega_flows`` (``--full`` only: it costs real wall time) its
#: registry quick scale -- its replies are withheld until every flow
#: has arrived, so 50k is already a worst-case tail.
LEGS: Dict[str, Workload] = {
    name: record for name, record in WORKLOADS.items()
    if "@" in name and not name.endswith("/closed")}
LEGS["fabric_fat_tree"] = replace(WORKLOADS["fabric_fat_tree"],
                                  quick=20, full=100)
LEGS["mega_flows"] = replace(WORKLOADS["mega_flows"], full=50_000)

#: closed-loop decomposition probes (registry names).
PROBES = ("udp_clean", "tcp_clean", "tcp_impaired")

def leg_names(quick: bool = True) -> List[str]:
    return [name for name in LEGS if not (quick and name == "mega_flows")]


def _observed(record: Workload, quick: bool,
              tracked: bool = False) -> RequestLifecycle:
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

    run_once(record, record.scale(quick), instrument)
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


def run_leg(name: str, quick: bool = True, closed: bool = True) -> Dict:
    """One open-loop leg plus, where the registry has one, its closed
    twin."""
    record = LEGS[name]
    lifecycle = _observed(record, quick)
    leg = {"workload": name.split("@")[0],
           "open": _percentiles(lifecycle, record.kinds[0])}
    if len(record.kinds) > 1:
        leg["open_tcp"] = _percentiles(lifecycle, record.kinds[1])
    twin = WORKLOADS.get(name + "/closed")
    if closed and twin is not None:
        lifecycle = _observed(twin, quick)
        leg["closed"] = _percentiles(lifecycle, twin.kinds[0])
        leg["tail_gap_p99_ns"] = leg["open"]["p99_ns"] - leg["closed"]["p99_ns"]
    return leg


def run_probe(name: str, quick: bool = True) -> Dict:
    """One closed-loop probe with the queueing decomposition attached."""
    record = WORKLOADS[name]
    lifecycle = _observed(record, quick, tracked=True)
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


def run_latency_suite(quick: bool = True) -> Dict:
    """Run every leg and probe; returns the judged report."""
    report = {"schema_version": SCHEMA_VERSION,
              "generated_by": "python -m repro.bench --latency",
              "quick": quick}
    report["legs"] = {name: run_leg(name, quick) for name in leg_names(quick)}
    report["decomposition"] = {name: run_probe(name, quick)
                               for name in PROBES}
    return judge(report, BASELINE_PATH)


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
# the gate, the baseline loader and the one writer
# ---------------------------------------------------------------------------

def load_baseline(path: str) -> Optional[Dict]:
    """The committed baseline at ``path``; ``None`` when there is none.

    A file that exists but does not parse raises: treating it as absent
    would downgrade every fingerprint check to a "no committed baseline"
    warning and turn the hard gate off silently.
    """
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as error:
            raise ValueError("baseline %s is unreadable: %s" % (path, error))


def write_json(payload: Dict, path: str) -> str:
    """Write a report or baseline; returns the path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _mismatch(fresh, reference) -> str:
    """Name what differs: the keys, when both sides are dicts."""
    if isinstance(fresh, dict) and isinstance(reference, dict):
        keys = sorted(key for key in set(fresh) | set(reference)
                      if fresh.get(key) != reference.get(key))
        return "%s: %r != %r" % (", ".join(keys),
                                 {key: fresh.get(key) for key in keys},
                                 {key: reference.get(key) for key in keys})
    return "%r != %r" % (fresh, reference)


def gate(gated: Dict[str, Dict], baseline: Dict[str, Dict]) -> Dict[str, Dict]:
    """Judge ``gated`` rows against the committed ``baseline`` rows;
    returns one verdict row (``ok`` / ``errors`` / ``warnings``) per
    input row.

    Fingerprint drift is an error; a row may arrive with ``errors`` /
    ``warnings`` of its own (an unreconciled probe).  A row missing from
    ``baseline`` warns.
    """
    verdicts = {}
    for name, row in gated.items():
        errors = list(row.get("errors", ()))
        warnings = list(row.get("warnings", ()))
        base = baseline.get(name)
        if base is None:
            warnings.append("no committed baseline for %r" % name)
        elif row["fingerprint"] != base["fingerprint"]:
            errors.append("simulated-time fingerprint drifted from the "
                          "committed baseline on %s"
                          % _mismatch(row["fingerprint"], base["fingerprint"]))
        verdicts[name] = {"errors": errors, "warnings": warnings,
                          "ok": not errors}
    return verdicts


def _mode(report: Dict) -> str:
    return "quick" if report["quick"] else "full"


def judge(report: Dict, path: str) -> Dict:
    """Gate ``report`` in place against the committed baseline at
    ``path`` for the report's scale; the verdict lands in
    ``comparison`` and ``ok``."""
    committed = (load_baseline(path) or {}).get(_mode(report), {})
    report["comparison"] = gate(rows(report), committed)
    report["ok"] = all(row["ok"] for row in report["comparison"].values())
    return report


def write_baseline(report: Dict, path: str) -> str:
    """Fold ``report`` into the committed baseline at ``path``: the
    fingerprints the gate reads, for the report's scale; the other
    scale survives."""
    baseline = load_baseline(path) or {}
    baseline["schema_version"] = SCHEMA_VERSION
    baseline[_mode(report)] = {name: {"fingerprint": row["fingerprint"]}
                               for name, row in rows(report).items()}
    return write_json(baseline, path)
