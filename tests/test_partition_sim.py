"""The sharded executor and the workload surface over it.

Bottom up:

* ``Engine.call_at`` schedules absolute floats, exactly.
* Shards (``workloads._map_shards`` over ``workloads._shard_task``):
  each builds, runs dry, must be done, and they come back in index
  order -- forked or in-process alike; a worker's exception arrives with
  its remote traceback, an unfinished shard is a ``SimulationError``
  naming it, and a worker that dies silently breaks the pool instead of
  hanging the run.
* The workload surface: sharded ``many_flows`` / ``mega_flows`` against
  their in-process oracle, the jobs=2 speed-up floor, and
  ``merge_snapshots``.
"""

import math
import os
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from repro.bench.workloads import (WORKLOADS, Workload, _check_shards,
                                   _map_shards)
from repro.obs.registry import MetricError, merge_snapshots
from repro.sim import Engine, SimulationError


# ---------------------------------------------------------------------------
# Engine.call_at
# ---------------------------------------------------------------------------

class TestRunWindow:
    def test_call_at_in_the_past_raises(self):
        engine = Engine()
        engine.call_at(3.0, lambda _ev: None)
        engine.run(until=4.0)
        with pytest.raises(SimulationError, match=r"call_at\(2\.0\) is in the past"):
            engine.call_at(2.0, lambda _ev: None, "arg")
        assert not engine._heap

    def test_call_at_passes_arg_at_the_exact_instant(self):
        """``call_at(when, fn, arg)`` is ``call_after``'s entry at an
        absolute time: ``fn(arg)`` runs with the clock at ``when``, bit
        for bit, and ``arg`` defaults to None."""
        engine = Engine()
        seen = []
        when = 0.1 + 0.2            # not the float 0.3
        engine.call_at(when, lambda arg: seen.append((engine.now, arg)),
                       ("frame", 7))
        engine.call_at(1.0, lambda arg: seen.append((engine.now, arg)))
        engine.run()
        assert seen == [(when, ("frame", 7)), (1.0, None)]

    def test_call_at_same_time_fifo(self):
        engine = Engine()
        order = []
        engine.call_at(1.0, lambda _ev: order.append("first"))
        engine.call_at(1.0, lambda _ev: order.append("second"))
        engine.run()
        assert order == ["first", "second"]


# ---------------------------------------------------------------------------
# the executor: shards forked over the suite's one process pool
# ---------------------------------------------------------------------------

def _timer_record(fault=None, victim=None):
    """A shardable record whose shard ``index`` fires one timer at ``t =
    index + 1`` and reports who ran it.  ``fault`` picks the ``victim``
    shard to misbehave: ``raise`` while it is built, ``exit`` its process
    without a word, or stay ``stuck`` on an event nothing fires."""
    def build(index, engine=None):
        if index == victim and fault == "raise":
            raise KeyError("no such flow table")
        if index == victim and fault == "exit":
            os._exit(3)
        return SimpleNamespace(engine=engine)

    def setup(bed, index, lifecycle=None):
        state = {"fired": []}

        def main():
            yield bed.engine.timeout(index + 1.0)
            state["fired"].append(bed.engine.now)
            if index == victim and fault == "stuck":
                yield bed.engine.event()

        return state, main

    return Workload(
        name="timer_shards", build=build, setup=setup,
        fingerprint=lambda state, bed: dict(state, pid=os.getpid()),
        packets=lambda state: 0, quick=1, full=1, warmup=1,
        split=lambda scale, n, index: index)


@pytest.fixture
def run_shards(monkeypatch):
    """``run(record, n, parallel)``: the ``n`` shard tasks of ``record``,
    forked or in this process (forked workers inherit the registry
    entry)."""
    def run(record, n, parallel):
        monkeypatch.setitem(WORKLOADS, record.name, record)
        return _map_shards([(record.name, 0, n, index)
                            for index in range(n)], parallel)
    return run


class TestExecutor:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_results_come_back_in_index_order(self, run_shards, parallel):
        results = run_shards(_timer_record(), 3, parallel)
        assert [r["fingerprint"]["fired"] for r in results] == [
            [1.0], [2.0], [3.0]]
        pids = {r["fingerprint"]["pid"] for r in results}
        if parallel:        # which worker takes which task is the pool's
            assert os.getpid() not in pids
        else:
            assert pids == {os.getpid()}

    def test_one_shard_never_forks(self, run_shards):
        for parallel in (False, True):
            (result,) = run_shards(_timer_record(), 1, parallel)
            assert result["fingerprint"]["pid"] == os.getpid()

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="sim_jobs must be >= 1"):
            _check_shards(WORKLOADS["many_flows"], SMALL_SCALE, 0)

    def test_worker_failure_relays_the_remote_traceback(self, run_shards):
        with pytest.raises(KeyError, match="no such flow table") as raised:
            run_shards(_timer_record("raise", 1), 2, True)
        remote = str(raised.value.__cause__)
        assert "Traceback" in remote and "_shard_task" in remote

    @pytest.mark.parametrize("parallel", [False, True])
    def test_unfinished_shard_is_a_deadlock(self, run_shards, parallel):
        with pytest.raises(SimulationError,
                           match="shard 1 of 2 is not done .* t=2.0"):
            run_shards(_timer_record("stuck", 1), 2, parallel)

    def test_worker_that_dies_silently_names_shard_and_exit_code(
            self, run_shards):
        """The pool cannot say which shard or exit code; what matters is
        that the run fails instead of waiting for the dead worker."""
        with pytest.raises(BrokenProcessPool):
            run_shards(_timer_record("exit", 0), 2, True)


# ---------------------------------------------------------------------------
# partitioned many_flows and the workload surface
# ---------------------------------------------------------------------------

SMALL_SCALE = 120


def _run_sharded(name, scale, sim_jobs, parallel=True):
    from repro.bench.workloads import WORKLOADS, run_partitioned
    return run_partitioned(WORKLOADS[name], scale, sim_jobs, parallel=parallel)


class TestPartitionedManyFlows:
    def test_parallel_matches_serial_oracle(self):
        serial = _run_sharded("many_flows", SMALL_SCALE, 2, parallel=False)
        current = _run_sharded("many_flows", SMALL_SCALE, 2, parallel=True)
        assert current["fingerprint"] == serial["fingerprint"]
        assert current["events"] == serial["events"]
        assert current["metrics"] == serial["metrics"]
        assert serial["executor"] == "serial"
        assert current["executor"] == "parallel"

    def test_fingerprint_sums_cover_all_flows(self):
        record = _run_sharded("many_flows", SMALL_SCALE, 3, parallel=False)
        fp = record["fingerprint"]
        assert fp["flows"] == SMALL_SCALE
        assert fp["tcp_done"] + fp["udp_done"] == SMALL_SCALE
        assert math.isfinite(fp["final_now_us"])

    def test_scale_must_cover_partitions(self):
        with pytest.raises(ValueError):
            _run_sharded("many_flows", 1, 2)
        with pytest.raises(ValueError):
            _run_sharded("many_flows", 10, 0)
        with pytest.raises(ValueError, match="many_flows"):
            _run_sharded("tcp_bulk", 100_000, 2)    # not shardable


class TestPartitionedMegaFlows:
    def test_parallel_matches_serial_oracle(self):
        serial = _run_sharded("mega_flows", SMALL_SCALE, 2, parallel=False)
        current = _run_sharded("mega_flows", SMALL_SCALE, 2, parallel=True)
        assert current["fingerprint"] == serial["fingerprint"]
        assert current["events"] == serial["events"]
        assert current["metrics"] == serial["metrics"]
        assert serial["executor"] == "serial"
        assert current["executor"] == "parallel"

    def test_deferred_replies_hold_every_flow_live(self):
        from repro.bench.workloads import WORKLOADS, run_once
        record = run_once(WORKLOADS["mega_flows"], SMALL_SCALE)
        fp = record["fingerprint"]
        assert fp["tcp_done"] + fp["udp_done"] == SMALL_SCALE
        # Every 8th flow is TCP, and the server defers every push until
        # all flows have arrived -- so the connection peak is exactly
        # the full TCP population, not a trickle of early retirements.
        assert fp["peak_conns"] == SMALL_SCALE // 8
        assert fp["bytes_in"] > 0

    def test_mega_flows_is_on_demand_only(self):
        from repro.bench.slo import leg_names
        assert "mega_flows" not in leg_names(quick=True)
        assert "mega_flows" in leg_names(quick=False)


class TestSpeedupExpectation:
    """The jobs=2 expectation is the gate's same-run-twin floor; the
    policy table is in tests/test_bench_gate.py."""

    @staticmethod
    def _judge(leg, monkeypatch, cores):
        from repro.bench import parallel
        from repro.bench.gate import gate
        monkeypatch.setattr(parallel, "affinity_cores", lambda: cores)
        rows, twins = parallel.leg_rows([leg])
        return twins, gate(rows, twins)

    @staticmethod
    def _leg(sim_jobs, speedup, serial_s=4.0):
        side = {"identity": {"events": 1}, "wall_s": serial_s / speedup}
        return {"workload": "many_flows", "sim_jobs": sim_jobs,
                "executor": "parallel", "parallel": side,
                "oracle": dict(side), "serial": {"wall_s": serial_s}}

    def test_single_core_records_skip_note(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(2, 0.5), monkeypatch, cores=1)
        verdict = verdicts["many_flows x2"]
        assert "min_ratio" not in twins["many_flows x2"]    # not gated
        assert verdict["ok"] and not verdict["errors"]
        assert any("single core" in note and "affinity=1" in note
                   for note in verdict["warnings"])

    def test_multi_core_gates_the_jobs2_leg(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(2, 1.5), monkeypatch, cores=4)
        assert twins["many_flows x2"]["min_ratio"] == 1.3   # gated
        assert verdicts["many_flows x2"]["ok"]
        _twins, verdicts = self._judge(self._leg(2, 1.1), monkeypatch,
                                       cores=4)
        assert not verdicts["many_flows x2"]["ok"]

    def test_multi_core_without_jobs2_leg_skips(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(4, 2.0), monkeypatch, cores=4)
        assert "min_ratio" not in twins["many_flows x4"]
        assert verdicts["many_flows x4"]["ok"]

    @pytest.mark.parametrize("serial_s, judged", [(2.0, True), (1.99, False)])
    def test_floor_needs_a_serial_side_of_two_seconds(self, monkeypatch,
                                                      serial_s, judged):
        twins, verdicts = self._judge(self._leg(2, 1.1, serial_s),
                                      monkeypatch, cores=4)
        verdict = verdicts["many_flows x2"]
        assert ("min_ratio" in twins["many_flows x2"]) is judged
        assert verdict["ok"] is not judged
        assert verdict["speed_vs_twin"] == pytest.approx(1.1)
        assert any("serial side under 2 s (1.99 s): floor not judged"
                   in note for note in verdict["warnings"]) is not judged


# ---------------------------------------------------------------------------
# merge_snapshots
# ---------------------------------------------------------------------------

class TestMergeSnapshots:
    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots([
            {"a": {"type": "counter", "value": 2},
             "g": {"type": "gauge", "value": 1.5}},
            {"a": {"type": "counter", "value": 3},
             "g": {"type": "gauge", "value": 0.5},
             "b": {"type": "counter", "value": 7}},
        ])
        assert merged["a"]["value"] == 5
        assert merged["g"]["value"] == 2.0
        assert merged["b"]["value"] == 7
        assert list(merged) == sorted(merged)

    def test_type_mismatch_raises(self):
        with pytest.raises(MetricError):
            merge_snapshots([
                {"m": {"type": "counter", "value": 1}},
                {"m": {"type": "gauge", "value": 1.0}},
            ])

    def test_empty_and_single(self):
        assert merge_snapshots([]) == {}
        one = {"a": {"type": "counter", "value": 4}}
        assert merge_snapshots([one]) == one

    def test_empty_registry_snapshot_is_identity(self):
        # A partition with no instruments registered contributes nothing.
        assert merge_snapshots([{}]) == {}
        one = {"a": {"type": "counter", "value": 4}}
        assert merge_snapshots([{}, one, {}]) == one

    def test_disjoint_counter_sets_union(self):
        merged = merge_snapshots([
            {"only.left": {"type": "counter", "value": 1}},
            {"only.right": {"type": "counter", "value": 2}},
        ])
        assert merged == {
            "only.left": {"type": "counter", "value": 1},
            "only.right": {"type": "counter", "value": 2},
        }
