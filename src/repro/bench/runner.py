"""The suite's one process pool, and the paper report sharded over it.

:func:`map_tasks` is the only place in ``src/`` that starts a worker
process: report sections, ``--latency`` legs, the shards of a sharded
workload (:func:`repro.bench.workloads.run_partitioned`) and chaos
campaigns are all independent tasks that share nothing, mapped over it
and merged in payload order.

``run_everything`` regenerates ~15 independent experiments -- each one
builds its own engines and testbeds from scratch and shares no state with
the others -- so the report is embarrassingly parallel at section
granularity.

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
from typing import List, Sequence, Tuple

__all__ = ["task_seed", "map_tasks", "run_report_sections", "run_report"]

#: arbitrary constant folded into every task seed so "figure5" the bench
#: task does not share a seed with an unrelated crc32("figure5") user.
_SEED_SALT = 0x9E3779B9


def task_seed(name: str) -> int:
    """A stable per-task RNG seed derived from the task name alone."""
    return zlib.crc32(name.encode("utf-8")) ^ _SEED_SALT


def map_tasks(fn, payloads: Sequence, jobs: int) -> List:
    """Run the module-level ``fn`` over picklable ``payloads``; results
    in payload order.

    ``jobs <= 1`` or a single payload runs inline (no pool, no fork);
    otherwise the payloads are distributed over ``min(jobs,
    len(payloads))`` worker processes.  ``ProcessPoolExecutor.map``
    already yields results in submission order, which is what makes the
    merge deterministic; it re-raises a worker's exception here with the
    remote traceback chained on, and raises ``BrokenProcessPool`` when a
    worker dies without a result (an OOM kill, ``os._exit``) instead of
    waiting for it.
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
    texts = map_tasks(_report_section_task,
                      [(name, quick) for name in names], jobs)
    return list(zip(names, texts))


def run_report(quick: bool = True, jobs: int = 1) -> str:
    """The full report text; byte-identical for every ``jobs`` value."""
    return "\n\n".join(
        text for _name, text in run_report_sections(quick=quick, jobs=jobs))

