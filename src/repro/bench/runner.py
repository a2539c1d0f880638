"""Process-pool orchestration for the benchmark suites.

``run_everything`` regenerates ~15 independent experiments -- each one
builds its own engines and testbeds from scratch and shares no state with
the others -- so the report is embarrassingly parallel at section
granularity.  This module shards those sections (and the wall-clock
workloads) across a ``ProcessPoolExecutor`` and merges the results in the
fixed serial order.

Determinism contract:

* Every task is named, and the worker seeds ``random`` from a stable hash
  of that name before running it (`task_seed`).  The simulations are
  deterministic by construction and never consult ``random``, but the
  seed pins down anything incidental (hash-seed-independent ordering is
  already guaranteed by the engine's explicit sequence numbers) and makes
  any *future* stochastic workload reproducible per task rather than
  dependent on scheduling order.
* The merge step joins section texts in declaration order, regardless of
  completion order, so ``--jobs N`` output is byte-identical to
  ``--jobs 1`` output -- which is itself the same code path run inline.
  The equivalence is enforced by ``tests/test_scaleout.py``.

Serial runs (``jobs <= 1``) execute the same task functions in the same
order in-process: there is exactly one code path for what runs, and the
pool only changes where it runs.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "task_seed",
    "run_report_sections",
    "run_report",
    "run_wallclock_suite",
]

#: arbitrary constant folded into every task seed so "figure5" the bench
#: task does not share a seed with an unrelated crc32("figure5") user.
_SEED_SALT = 0x9E3779B9


def task_seed(name: str) -> int:
    """A stable per-task RNG seed derived from the task name alone."""
    return zlib.crc32(name.encode("utf-8")) ^ _SEED_SALT


def _map_tasks(fn, payloads: Sequence, jobs: int) -> List:
    """Run ``fn`` over ``payloads``; results in payload order.

    ``jobs <= 1`` runs inline (no pool, no fork); otherwise the payloads
    are distributed over ``min(jobs, len(payloads))`` worker processes.
    ``ProcessPoolExecutor.map`` already yields results in submission
    order, which is what makes the merge deterministic.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


# ---------------------------------------------------------------------------
# report sections (python -m repro.bench [--full] [--jobs N])
# ---------------------------------------------------------------------------

def _report_section_task(payload: Tuple[str, bool]) -> str:
    """Render one named report section (runs in a worker process)."""
    import random

    name, quick = payload
    random.seed(task_seed(name))
    from .report import SECTIONS
    return dict(SECTIONS)[name](quick)


def run_report_sections(quick: bool = True,
                        jobs: int = 1) -> List[Tuple[str, str]]:
    """Every report section as ``(name, text)``, in declaration order."""
    from .report import SECTIONS
    names = [name for name, _fn in SECTIONS]
    texts = _map_tasks(_report_section_task,
                       [(name, quick) for name in names], jobs)
    return list(zip(names, texts))


def run_report(quick: bool = True, jobs: int = 1) -> str:
    """The full report text; byte-identical for every ``jobs`` value."""
    return "\n\n".join(
        text for _name, text in run_report_sections(quick=quick, jobs=jobs))


# ---------------------------------------------------------------------------
# wall-clock workloads (python -m repro.bench --wallclock [--jobs N])
# ---------------------------------------------------------------------------

def _wallclock_task(payload: Tuple[str, bool, str]) -> Dict:
    """Run one wall-clock workload (runs in a worker process)."""
    import random

    name, quick, mode = payload
    random.seed(task_seed(name))
    from .workloads import run_workload
    return run_workload(name, quick=quick, mode=mode)


def run_wallclock_suite(names: Sequence[str], gated: Sequence[str],
                        quick: bool = False, jobs: int = 1):
    """Current-mode records for ``names``, plus a same-run
    ``REPRO_FLOW_CACHE=0`` twin for each workload in ``gated``.

    Returns ``(current, oracle)``, dicts keyed by name in the given
    order.  Each workload runs once per rung: fingerprints are pure
    simulated-time outputs, identical for any ``jobs`` value, and
    rung-against-rung plus committed-baseline equality is the
    determinism check.  The mode travels in the task payload, so a
    pooled oracle leg runs under the same environment override a serial
    one does.
    """
    payloads = []
    for name in names:
        payloads.append((name, quick, "current"))
        if name in gated:
            payloads.append((name, quick, "uncached"))
    records = _map_tasks(_wallclock_task, payloads, jobs)
    current, oracle = {}, {}
    for (name, _quick, mode), record in zip(payloads, records):
        (current if mode == "current" else oracle)[name] = record
    return current, oracle
