"""The one pass/fail gate, baseline loader and report writer.

Both suites (``--latency``, ``--parallel-curve``) reduce their report
to *rows* -- ``{name: {"fingerprint": ...}}`` -- through a row extractor
each owns, and hand them here.  Everything the
paper reports is simulated time, which is deterministic and
machine-independent, so that is what :func:`gate` judges; how fast this
host ran the simulator is ``perfbench/``'s question, not this one's:

* **Fingerprint or identity mismatch is an error**, against the
  same-run twin and against the committed baseline alike.  A row with
  no committed baseline warns; a baseline that does not parse raises.
* **A row brings its own findings**: a probe that does not reconcile is
  an error, a single-core or short-leg note a warning.
* **One same-run ratio has a floor**: a forked jobs=2 leg must run
  ``parallel.SPEEDUP_MIN`` times faster than its serial side (the
  twin's ``min_ratio``; both sides carry ``wall_s``).  No other row
  carries a time, so no other row is judged on one.

Reports and baselines share one schema version, one header
(:func:`new_report`), one verdict-row shape (``ok`` / ``errors`` /
``warnings``, and ``speed_vs_twin`` on a timed leg) and one writer.  A
baseline is the projection of a report through the same row extractor
the gate reads (:func:`write_baseline`): fingerprints, nothing else.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Callable, Dict, Optional

__all__ = ["REPO_ROOT", "SCHEMA_VERSION", "ROW_KEYS", "host_fingerprint",
           "new_report", "load_baseline", "write_json", "gate", "judge",
           "write_baseline"]

#: src/repro/bench/gate.py -> the repository root.
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))

#: One version for the two BENCH_*.json reports and the one baseline.
#: 9 was the first unified one (CHANGES.md, PR 14); 10 drops every
#: judged host-speed field (PR 20).
SCHEMA_VERSION = 10

#: all a committed baseline keeps of a gate row.
ROW_KEYS = ("fingerprint",)


def host_fingerprint() -> Dict[str, str]:
    """Identify the machine a report was produced on: the label for its
    unjudged host-time fields (``wall_s``, ``events_per_sec``)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
    }


def new_report(command: str, quick: bool) -> Dict:
    """The header every report starts from; nothing else about *how*
    the report was produced."""
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "python -m repro.bench " + command,
        "quick": quick,
        "host": host_fingerprint(),
    }


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


def gate(rows: Dict[str, Dict], twins: Optional[Dict[str, Dict]] = None,
         baseline: Optional[Dict[str, Dict]] = None) -> Dict[str, Dict]:
    """Judge ``rows`` against their same-run ``twins`` and the committed
    ``baseline`` rows; returns one verdict row per input row.

    A row may arrive with ``errors`` / ``warnings`` of its own (an
    unreconciled probe, a single-core note).  When row and twin both
    carry ``wall_s`` the twin's over the row's is ``speed_vs_twin``, an
    error below the twin's ``min_ratio`` if it states one.
    ``baseline=None`` means the suite has no committed baseline at all,
    ``committed: False`` on a row that this row never enters one
    (same-run evidence only); any other row missing from the baseline
    warns.
    """
    verdicts = {}
    for name, row in rows.items():
        errors = list(row.get("errors", ()))
        warnings = list(row.get("warnings", ()))
        verdict = {"errors": errors, "warnings": warnings}
        twin = (twins or {}).get(name)
        if twin is not None:
            if row["fingerprint"] != twin["fingerprint"]:
                errors.append("divergence from the same-run twin on %s"
                              % _mismatch(row["fingerprint"],
                                          twin["fingerprint"]))
            if row.get("wall_s") and twin.get("wall_s"):
                ratio = verdict["speed_vs_twin"] = (twin["wall_s"]
                                                    / row["wall_s"])
                floor = twin.get("min_ratio")
                if floor is not None and ratio < floor:
                    errors.append(
                        "speed by wall time is %.2fx the same-run twin "
                        "(fail threshold %.2fx)" % (ratio, floor))
        committed = baseline if row.get("committed", True) else None
        base = None if committed is None else committed.get(name)
        if base is not None:
            if row["fingerprint"] != base["fingerprint"]:
                errors.append("simulated-time fingerprint drifted from the "
                              "committed baseline on %s"
                              % _mismatch(row["fingerprint"],
                                          base["fingerprint"]))
        elif committed is not None:
            warnings.append("no committed baseline for %r" % name)
        verdict["ok"] = not errors
        verdicts[name] = verdict
    return verdicts


def _mode(report: Dict) -> str:
    return "quick" if report["quick"] else "full"


def judge(report: Dict, extract: Callable,
          baseline_path: Optional[str] = None) -> Dict:
    """Gate ``report`` in place: ``extract(report) -> (rows, twins)``
    feeds :func:`gate` together with the committed rows for the report's
    scale, and the verdict lands in ``comparison`` and ``ok``."""
    rows, twins = extract(report)
    committed = None
    if baseline_path is not None:
        committed = (load_baseline(baseline_path) or {}).get(_mode(report), {})
    report["comparison"] = gate(rows, twins, committed)
    report["ok"] = all(row["ok"] for row in report["comparison"].values())
    return report


def write_baseline(report: Dict, extract: Callable, path: str) -> str:
    """Fold ``report`` into the committed baseline at ``path``: the rows
    the gate reads, for the report's scale; the other scale survives."""
    baseline = load_baseline(path) or {}
    baseline["schema_version"] = SCHEMA_VERSION
    baseline[_mode(report)] = {
        name: {key: row[key] for key in ROW_KEYS}
        for name, row in extract(report)[0].items()
        if row.get("committed", True)}
    return write_json(baseline, path)
