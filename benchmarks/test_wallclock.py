"""Self-check of the simulator substrate, at quick scale so the whole
file stays well under a minute.

One contract, a hard failure: every workload's simulated-time
fingerprint -- final clock, mean RTT, delivered Mb/s, charged CPU --
must be bit-identical to ``benchmarks/wallclock_baseline.json`` and to
its same-run ``REPRO_FLOW_CACHE=0`` twin.  A substrate optimization that
moves a single simulated microsecond is a correctness bug, not a
performance trade.  Host speed is not judged here (``perfbench/`` owns
it); the only clock read is the one-minute budget for the whole suite.

``python -m repro.bench --wallclock`` runs the same suite at full scale
and writes ``BENCH_wallclock.json``.
"""

import time

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
    """One quick-scale run of every workload, shared by the tests below."""
    wall0 = time.perf_counter()
    suite = run_suite(quick=True)
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


def test_repeats_are_deterministic():
    """Two calls of ``run_workload`` agree on every simulated output."""
    first = run_workload("dispatcher_micro", quick=True)
    second = run_workload("dispatcher_micro", quick=True)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["events"] == second["events"]
    assert first["fingerprint"]["raises"] == first["scale"]


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
