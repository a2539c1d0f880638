"""Determinism precondition for sharded runs.

The in-process oracle (``parallel=False`` vs the forked shards)
only proves anything if a serial run is a pure function of its inputs in
the first place: two back-to-back serial runs of the same workload in
the same process must agree on every observable -- the simulated-time
fingerprint, the full metrics snapshot, and the profiler's folded
stacks (which attribute every charged simulated microsecond, so they
are the finest-grained determinism probe the repo has).

These tests pin that precondition on small-scale ``many_flows`` -- the
workload the parallel gate shards -- for both the classic single-engine
path and the in-process sharded run.
"""

from repro.bench.workloads import WORKLOADS, run_once, run_partitioned
from repro.obs import CpuProfiler

SCALE = 300
MANY_FLOWS = WORKLOADS["many_flows"]


def _profiled_many_flows():
    holder = {}

    def instrument(bed):
        profiler = CpuProfiler()
        profiler.attach(bed.hosts)
        holder["profiler"] = profiler

    record = run_once(MANY_FLOWS, SCALE, instrument)
    return record, holder["profiler"]


class TestSerialDeterminism:
    def test_back_to_back_runs_bit_identical(self):
        first, prof1 = _profiled_many_flows()
        second, prof2 = _profiled_many_flows()
        assert first["fingerprint"] == second["fingerprint"]
        assert first["metrics"] == second["metrics"]
        assert first["events"] == second["events"]

        folded = prof1.folded_text()
        assert folded == prof2.folded_text()
        # Sanity: the probe actually measured something on the unix bed.
        assert folded.strip()
        assert any(line.startswith("unix-h") for line in folded.splitlines())

    def test_partitioned_serial_executor_repeats_identically(self):
        first = run_partitioned(MANY_FLOWS, SCALE, 2, parallel=False)
        second = run_partitioned(MANY_FLOWS, SCALE, 2, parallel=False)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["metrics"] == second["metrics"]
        assert first["events"] == second["events"]
