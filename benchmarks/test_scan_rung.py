"""Generated scans against the reference scan, in exact counts.

The reason generated code is the dispatcher's one path: on every
dispatcher workload it executes no more bytecodes and makes no more
calls per op than the interpreted walk it specializes.  The walk is the
``scan`` twin's reference (``tests/twins.py``), patched over
``compile_scan``; each side is one ``perfbench`` run of a workload --
its ``expected.json`` pins checked on every rep -- with one discarded
warm-up rep at ``profile_scale`` first, as ``measure_end_to_end`` takes
one, then the opcode and profile passes ``perfbench`` traces.

Generated code may be at most ``BENCHMARK.json``'s bound (2%) above the
scan on ``bytecodes_per_op`` and ``calls_per_op``, both exact counts,
and the two sides' simulated fingerprints must be equal.
``dispatch_churn`` is left out on purpose: a handler is installed or
uninstalled every four raises there, so a quarter of its raises compile
a scan before running it, and its guards are opaque -- fewer bytecodes
than the scan but about 2% more calls.

    PYTHONPATH=src python -m pytest benchmarks/test_scan_rung.py -q
"""

import contextlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.append(os.path.join(ROOT, "tests"))

from perfbench.harness import Run, _traced_passes  # noqa: E402
from perfbench.workloads import DEFAULT_SEED  # noqa: E402
from twins import scan  # noqa: E402

#: BENCHMARK.json's bound on ``bytecodes_per_op`` and ``calls_per_op``.
BOUND = 0.02


def _per_op(name, twin):
    """``(run, bytecodes_per_op, calls_per_op)`` of ``name`` under
    ``twin``.  cProfile clears the process's profile hook when it stops,
    so the one it found is put back."""
    hook = sys.getprofile()
    run = Run(name, DEFAULT_SEED)
    try:
        with twin():
            run.rep(run.workload.profile_scale)     # discarded warm-up
            counter, opcode_rep, profile, profile_rep = _traced_passes(run)
    finally:
        sys.setprofile(hook)
    return (run, counter.total / opcode_rep.ops,
            profile.total_calls / profile_rep.ops)


@pytest.mark.parametrize("name", ["udp_rtt_spin", "tcp_bulk_spin",
                                  "fabric_open_loop"])
def test_generated_code_is_no_costlier_than_the_scan(name):
    reference, scan_bytecodes, scan_calls = _per_op(name, scan)
    generated, bytecodes, calls = _per_op(name, contextlib.nullcontext)
    for run in (reference, generated):
        assert run.failed == 0 and not run.problems, run.problems
    assert generated.fingerprints == reference.fingerprints
    assert bytecodes <= scan_bytecodes * (1 + BOUND), (bytecodes,
                                                       scan_bytecodes)
    assert calls <= scan_calls * (1 + BOUND), (calls, scan_calls)
