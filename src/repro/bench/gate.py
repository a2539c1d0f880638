"""The one pass/fail gate, baseline loader and report writer.

Every suite (``--wallclock``, ``--latency``, ``--parallel-curve``)
reduces its report to *rows* -- ``{name: {"fingerprint": ..., speed}}``
where the speed is ``events_per_sec`` (higher is better) or ``wall_s``
(lower is better) -- through a row extractor it owns, and hands them
here.  :func:`gate` applies the three policies, each with the teeth its
evidence supports:

* **Fingerprint or identity mismatch is an error**, against the
  same-run twin and against the committed baseline alike: simulated
  time is deterministic and machine-independent.
* **The same-run twin ratio is an error below its floor.**  Twin and
  row ran on the same host in the same minute, so a shortfall is the
  code, not the machine.  The extractor states the floor
  (``min_ratio``): ``1 - REPRO_BENCH_FAIL_PCT/100`` for the
  ``REPRO_FLOW_CACHE=0`` oracle legs, ``parallel.SPEEDUP_MIN`` for a
  judged forked jobs=2 leg; a twin without one is informational.
* **Committed-baseline speed only warns**, past
  ``REPRO_BENCH_WARN_PCT``, and says so when the baseline was recorded
  on a different host -- those numbers carry no signal here.  A row
  with no committed baseline warns too.

Reports and baselines share one schema version, one header
(:func:`new_report`), one verdict-row shape (``ok`` / ``errors`` /
``warnings`` / ``speed_vs_twin`` / ``speed_vs_baseline``) and one
writer.  A baseline is the projection of a report through the same row
extractor the gate reads (:func:`write_baseline`).
"""

from __future__ import annotations

import json
import math
import os
import platform
from typing import Callable, Dict, Optional, Tuple

__all__ = ["REPO_ROOT", "SCHEMA_VERSION", "THRESHOLD_DEFAULTS", "ROW_KEYS",
           "env_threshold", "host_fingerprint", "new_report",
           "load_baseline", "write_json", "gate", "judge", "write_baseline"]

#: src/repro/bench/gate.py -> the repository root.
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))

#: One version for the three BENCH_*.json reports and both baselines
#: (EXPERIMENTS.md, "Report format").  9 is the first unified one; it
#: follows wallclock 8 / latency 2 / parallel 2.
SCHEMA_VERSION = 9

#: The gate's two knobs and their defaults: warn and fail thresholds in
#: percent.
THRESHOLD_DEFAULTS = {
    "REPRO_BENCH_WARN_PCT": 20.0,
    "REPRO_BENCH_FAIL_PCT": 20.0,
}

#: what a gate row consists of -- and all a committed baseline keeps.
ROW_KEYS = ("fingerprint", "events_per_sec", "wall_s")


def env_threshold(var: str) -> float:
    """A gate threshold from the environment, defensively parsed.

    Unset, unparsable, non-finite or negative values fall back to the
    default rather than erroring (a typo in CI config must not kill the
    harness) -- and must not bend the gate either: ``nan`` would make
    every comparison false, ``-1`` every one true.
    """
    try:
        value = float(os.environ.get(var, ""))
    except ValueError:
        return THRESHOLD_DEFAULTS[var]
    if not math.isfinite(value) or value < 0:
        return THRESHOLD_DEFAULTS[var]
    return value


def host_fingerprint() -> Dict[str, str]:
    """Identify the machine a report was produced on.

    Wall-clock throughput is a property of (code, host); recording the
    host lets the gate label cross-machine drift as informational.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
    }


def new_report(command: str, quick: bool) -> Dict:
    """The header every report starts from.  It records nothing else
    about *how* the report was produced: ``--jobs N`` must emit the same
    simulated content a serial run does."""
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


def _speed(row: Dict) -> Tuple[str, Optional[float]]:
    """A row's higher-is-better speed and what to call it."""
    if row.get("events_per_sec"):
        return "events/sec", row["events_per_sec"]
    if row.get("wall_s"):
        return "speed by wall time", 1.0 / row["wall_s"]
    return "speed", None


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
         baseline: Optional[Dict[str, Dict]] = None,
         cross_host: bool = False) -> Dict[str, Dict]:
    """Judge ``rows`` against their same-run ``twins`` and the committed
    ``baseline`` rows; returns one verdict row per input row.

    A row may arrive with ``errors`` / ``warnings`` of its own (an
    unreconciled probe, a single-core note); a twin may carry the
    ``min_ratio`` floor its speed ratio must reach.  ``baseline=None``
    means the suite has no committed baseline at all, ``committed:
    False`` on a row that this row never enters one (same-run evidence
    only); any other row missing from the baseline warns.
    """
    warn_floor = 1.0 - env_threshold("REPRO_BENCH_WARN_PCT") / 100.0
    host_note = (" (informational: baseline recorded on a different or "
                 "unknown host)" if cross_host else "")
    verdicts = {}
    for name, row in rows.items():
        errors = list(row.get("errors", ()))
        warnings = list(row.get("warnings", ()))
        verdict = {"errors": errors, "warnings": warnings}
        label, speed = _speed(row)
        twin = (twins or {}).get(name)
        if twin is not None:
            if row["fingerprint"] != twin["fingerprint"]:
                errors.append("divergence from the same-run twin on %s"
                              % _mismatch(row["fingerprint"],
                                          twin["fingerprint"]))
            twin_speed = _speed(twin)[1]
            if speed and twin_speed:
                ratio = verdict["speed_vs_twin"] = speed / twin_speed
                floor = twin.get("min_ratio")
                if floor is not None and ratio < floor:
                    errors.append(
                        "%s is %.2fx the same-run twin (fail threshold "
                        "%.2fx)" % (label, ratio, floor))
        committed = baseline if row.get("committed", True) else None
        base = None if committed is None else committed.get(name)
        if base is not None:
            if row["fingerprint"] != base["fingerprint"]:
                errors.append("simulated-time fingerprint drifted from the "
                              "committed baseline on %s"
                              % _mismatch(row["fingerprint"],
                                          base["fingerprint"]))
            base_speed = _speed(base)[1]
            if speed and base_speed:
                ratio = verdict["speed_vs_baseline"] = speed / base_speed
                if ratio < warn_floor:
                    warnings.append(
                        "%s is %.0f%% of committed baseline (warn threshold "
                        "%.0f%%)%s" % (label, 100 * ratio, 100 * warn_floor,
                                       host_note))
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
    committed, cross_host = None, False
    if baseline_path is not None:
        baseline = load_baseline(baseline_path) or {}
        committed = baseline.get(_mode(report), {})
        cross_host = baseline.get("host") != report["host"]
    report["comparison"] = gate(rows, twins, committed, cross_host)
    report["ok"] = all(row["ok"] for row in report["comparison"].values())
    return report


def write_baseline(report: Dict, extract: Callable, path: str) -> str:
    """Fold ``report`` into the committed baseline at ``path``: the rows
    the gate reads, for the report's scale; the other scale survives."""
    baseline = load_baseline(path) or {}
    baseline["schema_version"] = SCHEMA_VERSION
    baseline["host"] = report["host"]
    baseline[_mode(report)] = {
        name: {key: row[key] for key in ROW_KEYS if key in row}
        for name, row in extract(report)[0].items()
        if row.get("committed", True)}
    return write_json(baseline, path)
