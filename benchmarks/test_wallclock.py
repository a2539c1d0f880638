"""Wall-clock self-benchmark of the simulator substrate.

Two distinct contracts, checked at quick scale so the whole file stays
well under a minute:

* **Determinism (hard failure).**  Every workload's simulated-time
  fingerprint -- final clock, mean RTT, delivered Mb/s, charged CPU --
  must be bit-identical to ``benchmarks/wallclock_baseline.json``.  A
  substrate optimization that moves a single simulated microsecond is a
  correctness bug, not a performance trade.
* **Throughput (warning only).**  Events/sec more than 20% below the
  committed baseline emits a warning.  Wall-clock numbers depend on host
  load, so a slowdown never fails CI; it shows up in the warnings summary
  for a human to judge.

``python -m repro.bench --wallclock`` runs the same suite at full scale
and writes ``BENCH_wallclock.json``.
"""

import gc
import time
import warnings

import pytest

from repro.bench.gate import load_baseline
from repro.bench.wallclock import BASELINE_PATH, run_suite
from repro.bench.workloads import WORKLOADS, run_workload

SMOKE_BUDGET_S = 60.0

#: what ``run_suite`` runs by default: the on-demand workloads have no
#: committed baseline row and no place in a one-minute smoke.
DEFAULT_SUITE = sorted(name for name, record in WORKLOADS.items()
                       if record.default_suite)


@pytest.fixture(scope="module")
def quick_suite():
    """One quick-scale run of every workload, shared by the tests below.

    Best-of-3 with a collected heap: when this module runs after the rest
    of the benchmark suite, garbage left by earlier tests can otherwise
    halve the measured events/sec and trip the slowdown warning for no
    substrate reason.
    """
    gc.collect()
    wall0 = time.perf_counter()
    suite = run_suite(quick=True, repeats=3)
    suite["suite_wall_s"] = time.perf_counter() - wall0
    return suite


@pytest.fixture(scope="module")
def baseline():
    # A missing baseline fails here, and an unreadable one raises in the
    # loader: skipping would turn the determinism guard off silently.
    base = load_baseline(BASELINE_PATH)
    assert base is not None, "%s is missing" % BASELINE_PATH
    return base


def test_smoke_completes_inside_budget(quick_suite):
    assert quick_suite["suite_wall_s"] < SMOKE_BUDGET_S, (
        "quick wall-clock suite took %.1fs (budget %.0fs)"
        % (quick_suite["suite_wall_s"], SMOKE_BUDGET_S))


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_fingerprint_matches_baseline(quick_suite, baseline, name):
    """The determinism guard: simulated time must not drift at all."""
    expected = baseline["quick"][name]["fingerprint"]
    actual = quick_suite["workloads"][name]["fingerprint"]
    assert actual == expected, (
        "simulated-time fingerprint of %r drifted from the committed "
        "baseline:\n  measured %r\n  expected %r" % (name, actual, expected))
    assert quick_suite["comparison"][name]["ok"]


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_throughput_regression_warns_only(quick_suite, name):
    row = quick_suite["comparison"][name]
    # Fingerprint errors are asserted above; here only the soft contract.
    for message in row["warnings"]:
        warnings.warn("wallclock %s: %s" % (name, message))
    assert "speed_vs_baseline" in row


def test_repeats_are_deterministic():
    """run_workload itself raises if repeats disagree; exercise that."""
    record = run_workload("dispatcher_micro", quick=True, repeats=2)
    assert record["fingerprint"]["raises"] == record["scale"]


def test_benchmark_fixture_record(benchmark, quick_suite):
    """Expose the quick-suite numbers through pytest-benchmark's report."""
    result = benchmark.pedantic(
        run_workload, args=("udp_pingpong",),
        kwargs={"quick": True}, iterations=1, rounds=1)
    benchmark.extra_info.update({
        "events_per_sec": result["events_per_sec"],
        "packets_per_sec": result["packets_per_sec"],
        "fingerprint": result["fingerprint"],
    })
    assert result["events_per_sec"] > 0
