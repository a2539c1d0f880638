"""The partitioned conservative simulation core.

Four layers, bottom up:

* ``SchedulerCore`` window semantics: ``run_window(bound)`` is strict
  (an event exactly at the bound belongs to the *next* window),
  ``next_event_time`` is exact, ``call_at`` schedules absolute floats.
* Boundary plumbing: zero/negative-lookahead channels are rejected at
  both layers (they would admit no safe window), duplicate registration
  and non-causal sends raise.
* The coordinator: a timer on the exact safe-window edge, routed-frame
  tie-breaking, and serial/parallel executor equality -- including a
  UDP ping-pong whose RTTs must be bit-identical across the serial
  executor, the parallel executor, AND the classic single-engine bed
  (the boundary channel mirrors ``PointToPointLink`` timing exactly).
* The workload surface: partitioned ``many_flows`` against its serial
  oracle, ``run_workload(sim_jobs=...)`` plumbing, ``merge_snapshots``,
  and a mid-run flap on a boundary channel.
"""

import math

import pytest

from repro.bench.testbed import build_boundary_pair_partition, \
    build_testbed, partition_hosts
from repro.hw.link import BoundaryChannel
from repro.obs.registry import MetricError, merge_snapshots
from repro.sim import Engine, Partition, PartitionedSimulation, \
    PartitionEngine, SimulationError

INF = float("inf")


# ---------------------------------------------------------------------------
# SchedulerCore window semantics
# ---------------------------------------------------------------------------

class TestRunWindow:
    def test_event_exactly_at_bound_waits_for_next_window(self):
        engine = Engine()
        fired = []
        engine.call_at(5.0, lambda _ev: fired.append(engine.now))
        assert engine.run_window(5.0) == 0
        assert fired == []
        assert engine.next_event_time() == 5.0
        assert engine.run_window(5.0 + 1e-9) == 1
        assert fired == [5.0]

    def test_window_processes_everything_strictly_below_bound(self):
        engine = Engine()
        fired = []
        for when in (1.0, 2.0, 3.0, 4.0):
            engine.call_at(when, lambda _ev, w=when: fired.append(w))
        assert engine.run_window(3.0) == 2
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0

    def test_next_event_time_exact_and_inf_when_empty(self):
        engine = Engine()
        assert engine.next_event_time() == INF
        engine.call_at(7.25, lambda _ev: None)
        assert engine.next_event_time() == 7.25
        engine.run_window(8.0)
        assert engine.next_event_time() == INF

    def test_call_at_in_the_past_raises(self):
        engine = Engine()
        engine.call_at(3.0, lambda _ev: None)
        engine.run(until=4.0)
        with pytest.raises(SimulationError):
            engine.call_at(2.0, lambda _ev: None)

    def test_call_at_same_time_fifo(self):
        engine = Engine()
        order = []
        engine.call_at(1.0, lambda _ev: order.append("first"))
        engine.call_at(1.0, lambda _ev: order.append("second"))
        engine.run_window(2.0)
        assert order == ["first", "second"]


# ---------------------------------------------------------------------------
# boundary-channel edge cases
# ---------------------------------------------------------------------------

class _FakeChannel:
    def __init__(self, channel_id, lookahead_us):
        self.channel_id = channel_id
        self.lookahead_us = lookahead_us

    def deliver(self, payload):
        pass


class TestBoundaryRejection:
    def test_zero_propagation_boundary_medium_rejected(self):
        engine = PartitionEngine(0)
        with pytest.raises(ValueError, match="lookahead"):
            BoundaryChannel(engine, "b", bandwidth_bps=45e6,
                            propagation_us=0.0)

    def test_negative_propagation_rejected(self):
        engine = PartitionEngine(0)
        with pytest.raises(ValueError, match="lookahead"):
            BoundaryChannel(engine, "b", bandwidth_bps=45e6,
                            propagation_us=-1.0)

    def test_register_channel_requires_positive_lookahead(self):
        engine = PartitionEngine(0)
        with pytest.raises(SimulationError, match="no lookahead"):
            engine.register_channel(_FakeChannel("b", 0.0))

    def test_duplicate_channel_id_rejected(self):
        engine = PartitionEngine(0)
        engine.register_channel(_FakeChannel("b", 1.0))
        with pytest.raises(SimulationError, match="twice"):
            engine.register_channel(_FakeChannel("b", 2.0))

    def test_non_causal_send_rejected(self):
        engine = PartitionEngine(0)
        engine.register_channel(_FakeChannel("b", 1.0))
        engine.call_at(5.0, lambda _ev: None)
        engine.run(until=6.0)
        with pytest.raises(SimulationError, match="not after now"):
            engine.send_boundary("b", 5.0, 1, "late")

    def test_boundary_channel_single_nic(self):
        engine = PartitionEngine(0)
        channel = BoundaryChannel(engine, "b", bandwidth_bps=45e6)
        assert channel.lookahead_us == 1.0
        assert engine.min_lookahead_us() == 1.0

    def test_partition_requires_partition_engine(self):
        with pytest.raises(TypeError):
            Partition(Engine(), done=lambda: True, result=dict)


class TestPartitionHosts:
    def test_contiguous_blocks_cover_all_hosts(self):
        assignment = partition_hosts(10, 3)
        assert assignment == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert partition_hosts(4, 4) == [[0], [1], [2], [3]]
        assert partition_hosts(2, 1) == [[0, 1]]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_hosts(4, 0)


# ---------------------------------------------------------------------------
# the coordinator: safe-window edges and executor equality
# ---------------------------------------------------------------------------

def _edge_partition(index, n_partitions, spec):
    """Hand-built two-partition topology probing the safe-window edge.

    Partition 0 sends one boundary frame at t=4 arriving at t=5 over a
    lookahead-1 channel.  Partition 1 holds timers at exactly t=5 (the
    first round's safe-window bound) and t=6 (the second's).  The round
    protocol must leave each edge timer for the round *after* its bound,
    fire the t=5 timer before the t=5 injection (FIFO: the timer claimed
    its sequence number first), and produce the identical log under both
    executors.
    """
    engine = PartitionEngine(index)
    log = []

    class _Chan:
        channel_id = "edge"
        lookahead_us = 1.0

        def deliver(self, payload):
            log.append((engine.now, "frame", payload))

    engine.register_channel(_Chan())
    if index == 0:
        engine.call_at(4.0, lambda _ev: engine.send_boundary(
            "edge", 5.0, 1, "hello"))
    else:
        engine.call_at(5.0, lambda _ev: log.append(
            (engine.now, "timer-on-edge", None)))
        engine.call_at(6.0, lambda _ev: log.append(
            (engine.now, "timer-after-edge", None)))
    return Partition(
        engine,
        done=lambda: engine.next_event_time() == INF,
        result=lambda: {"log": log, "now": engine.now,
                        "events": engine.events_processed})


EDGE_EXPECTED = [(5.0, "timer-on-edge", None), (5.0, "frame", "hello"),
                 (6.0, "timer-after-edge", None)]


class TestSafeWindowEdge:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_timer_exactly_on_safe_window_edge(self, parallel):
        simulation = PartitionedSimulation(_edge_partition, 2,
                                           parallel=parallel)
        results = simulation.run()
        assert results[1]["log"] == EDGE_EXPECTED
        assert results[0]["log"] == []
        assert simulation.frames_routed == 1

    def test_serial_and_parallel_identical(self):
        serial = PartitionedSimulation(_edge_partition, 2, parallel=False)
        parallel = PartitionedSimulation(_edge_partition, 2, parallel=True)
        assert serial.run() == parallel.run()
        assert serial.rounds == parallel.rounds


# ---------------------------------------------------------------------------
# UDP ping-pong: boundary channel vs the classic single-engine bed
# ---------------------------------------------------------------------------

PINGS = 10
PACE_US = 1_000.0
ECHO_PORT = 7777
CLIENT_PORT = 7778


def _attach_echo_server(stack):
    from repro.core.manager import Credential
    from repro.lang.ephemeral import ephemeral
    server_ep = None

    @ephemeral
    def echo_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)
    server_ep = stack.udp_manager.bind(Credential("pong-srv"), ECHO_PORT,
                                       echo_handler)


def _attach_ping_client(engine, host, stack, server_ip):
    from repro.core.manager import Credential
    from repro.lang.ephemeral import ephemeral
    arrivals, sends = [], []

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        arrivals.append(engine.now)
    client_ep = stack.udp_manager.bind(Credential("pong-cli"), CLIENT_PORT,
                                       client_handler)

    def drive():
        for seq in range(PINGS):
            payload = b"ping-%02d" % seq
            sends.append(engine.now)
            yield from host.kernel_path(
                lambda p=payload: client_ep.send(p, server_ip, ECHO_PORT))
            yield engine.pooled_timeout(PACE_US)
    process = engine.process(drive(), name="pingpong")
    return arrivals, sends, process


def _pingpong_partition(index, n_partitions, spec):
    from repro.net.headers import ip_aton

    engine = PartitionEngine(index)
    bed = build_boundary_pair_partition("spin", index, engine)
    stack, host = bed.stacks[0], bed.hosts[0]
    if index == 1:
        _attach_echo_server(stack)
        return Partition(engine, done=lambda: True,
                         result=lambda: {"rtts": [], "now": engine.now,
                                         "events": engine.events_processed})
    arrivals, sends, process = _attach_ping_client(
        engine, host, stack, ip_aton("10.1.0.2"))
    return Partition(
        engine,
        done=lambda: process.triggered and len(arrivals) == PINGS,
        result=lambda: {
            "rtts": [a - s for a, s in zip(arrivals, sends)],
            "now": engine.now,
            "events": engine.events_processed,
        })


def _classic_pingpong_rtts():
    bed = build_testbed("spin", "t3")
    _attach_echo_server(bed.stacks[1])
    arrivals, sends, _process = _attach_ping_client(
        bed.engine, bed.hosts[0], bed.stacks[0], bed.ip(1))
    bed.engine.run()
    return [a - s for a, s in zip(arrivals, sends)]


class TestBoundaryPingPong:
    @pytest.fixture(scope="class")
    def legs(self):
        serial = PartitionedSimulation(_pingpong_partition, 2,
                                       parallel=False).run()
        parallel = PartitionedSimulation(_pingpong_partition, 2,
                                         parallel=True).run()
        return serial, parallel, _classic_pingpong_rtts()

    def test_all_pings_answered(self, legs):
        serial, _parallel, _classic = legs
        assert len(serial[0]["rtts"]) == PINGS
        assert all(rtt > 0.0 for rtt in serial[0]["rtts"])

    def test_parallel_bit_identical_to_serial(self, legs):
        serial, parallel, _classic = legs
        assert parallel == serial

    def test_boundary_timing_bit_identical_to_classic_link(self, legs):
        """The lookahead IS the propagation delay: sharding the classic
        T3 pair across engines must not move a single RTT float."""
        serial, _parallel, classic = legs
        assert serial[0]["rtts"] == classic


# ---------------------------------------------------------------------------
# mid-run flap on a boundary channel
# ---------------------------------------------------------------------------

class TestBoundaryFlap:
    def test_flap_drops_frames_and_executors_agree(self):
        from repro.chaos.partition import build_partition_corpus, \
            run_partition_campaign
        spec = next(s for s in build_partition_corpus(count=6)
                    if "flap" in s.name)
        verdict = run_partition_campaign(spec)
        assert verdict["passed"], verdict["violations"]
        dropped = sum(r["boundary"]["frames_flap_dropped"]
                      for r in verdict["results"])
        assert dropped > 0, "the flap window never hit live traffic"
        # TCP recovered the full stream across the flap.
        assert verdict["results"][1]["tcp"]["received_len"] == spec.tcp_bytes


# ---------------------------------------------------------------------------
# partitioned many_flows and the workload surface
# ---------------------------------------------------------------------------

SMALL_SCALE = 120


def _run_sharded(name, scale, sim_jobs, parallel=None):
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

    def test_env_kill_switch_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PARALLEL", "0")
        record = _run_sharded("many_flows", SMALL_SCALE, 2)
        assert record["executor"] == "serial"
        assert record["fingerprint"]["partitions"] == 2

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

    def test_run_workload_rejects_sim_jobs_on_other_workloads(self):
        from repro.bench.workloads import run_workload
        with pytest.raises(ValueError, match="many_flows"):
            run_workload("tcp_bulk", quick=True, sim_jobs=2)

    def test_run_workload_sim_jobs_against_oracle(self, monkeypatch):
        from dataclasses import replace
        from repro.bench import workloads
        monkeypatch.setitem(
            workloads.WORKLOADS, "many_flows",
            replace(workloads.WORKLOADS["many_flows"], quick=SMALL_SCALE,
                    warmup=SMALL_SCALE))
        current = workloads.run_workload("many_flows", quick=True, sim_jobs=2)
        monkeypatch.setenv("REPRO_SIM_PARALLEL", "0")
        oracle = workloads.run_workload("many_flows", quick=True, sim_jobs=2)
        assert current["fingerprint"] == oracle["fingerprint"]
        assert current["metrics"] == oracle["metrics"]
        assert current["events"] == oracle["events"]


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
        from repro.bench.workloads import WORKLOADS
        assert not WORKLOADS["mega_flows"].default_suite


class TestRoundOverhead:
    def test_executors_agree_and_export_metrics(self):
        from repro.bench.parallel import run_round_overhead
        serial = run_round_overhead(messages=20, parallel=False)
        par = run_round_overhead(messages=20, parallel=True)
        # Every ping forces a round over, every echo a round back, plus
        # the final empty round that discovers termination.
        assert serial["rounds"] == par["rounds"] == 2 * 20 + 1
        assert serial["frames_routed"] == par["frames_routed"] == 2 * 20
        for record in (serial, par):
            assert record["rounds_per_sec"] > 0
            assert record["metrics"]["sim.coord.rounds"]["value"] == \
                record["rounds"]
            assert record["metrics"]["sim.coord.frames_routed"]["value"] == \
                record["frames_routed"]
        assert serial["executor"] == "serial"
        assert par["executor"] == "parallel"
        assert par["ring_fallbacks"] == 0


class TestSpeedupExpectation:
    """The jobs=2 expectation is the gate's same-run-twin floor; the
    policy table is in tests/test_bench_gate.py."""

    @staticmethod
    def _judge(leg, monkeypatch, cores, min_speedup=None):
        from repro.bench import parallel
        from repro.bench.gate import env_threshold, gate
        monkeypatch.setattr(parallel, "affinity_cores", lambda: cores)
        if min_speedup is None:
            min_speedup = env_threshold("REPRO_SIM_SPEEDUP_MIN")
        rows, twins = parallel.leg_rows([leg], min_speedup)
        return twins, gate(rows, twins)

    @staticmethod
    def _leg(sim_jobs, speedup):
        side = {"identity": {"events": 1}, "wall_s": 1.0 / speedup}
        return {"workload": "many_flows", "sim_jobs": sim_jobs,
                "executor": "parallel", "parallel": side,
                "oracle": dict(side), "serial": {"wall_s": 1.0}}

    def test_single_core_records_skip_note(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(2, 0.5), monkeypatch, cores=1)
        verdict = verdicts["many_flows x2"]
        assert "min_ratio" not in twins["many_flows x2"]    # not gated
        assert verdict["ok"] and not verdict["errors"]
        assert any("single core" in note and "affinity=1" in note
                   for note in verdict["warnings"])

    def test_multi_core_gates_the_jobs2_leg(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(2, 1.5), monkeypatch,
                                      cores=4, min_speedup=1.3)
        assert twins["many_flows x2"]["min_ratio"] == 1.3   # gated
        assert verdicts["many_flows x2"]["ok"]
        _twins, verdicts = self._judge(self._leg(2, 1.1), monkeypatch,
                                       cores=4, min_speedup=1.3)
        assert not verdicts["many_flows x2"]["ok"]

    def test_multi_core_without_jobs2_leg_skips(self, monkeypatch):
        twins, verdicts = self._judge(self._leg(4, 2.0), monkeypatch, cores=4)
        assert "min_ratio" not in twins["many_flows x4"]
        assert verdicts["many_flows x4"]["ok"]


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

    def test_histograms_merge_elementwise(self):
        h1 = {"type": "histogram", "value": {
            "bounds": [1.0, 10.0], "counts": [2, 1, 0], "count": 3,
            "sum": 12.5}}
        h2 = {"type": "histogram", "value": {
            "bounds": [1.0, 10.0], "counts": [0, 4, 1], "count": 5,
            "sum": 40.0}}
        merged = merge_snapshots([{"h": h1}, {"h": h2}])
        assert merged["h"]["value"] == {
            "bounds": [1.0, 10.0], "counts": [2, 5, 1], "count": 8,
            "sum": 52.5}
        # inputs are not mutated
        assert h1["value"]["counts"] == [2, 1, 0]

    def test_histogram_bounds_mismatch_raises(self):
        h1 = {"type": "histogram", "value": {
            "bounds": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0}}
        h2 = {"type": "histogram", "value": {
            "bounds": [2.0], "counts": [0, 0], "count": 0, "sum": 0.0}}
        with pytest.raises(MetricError):
            merge_snapshots([{"h": h1}, {"h": h2}])

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

    def test_histogram_bucket_count_mismatch_raises(self):
        # Same bounds but different counts lengths: a zip-based merge
        # would silently drop the tail buckets instead of failing.
        h1 = {"type": "histogram", "value": {
            "bounds": [1.0, 10.0], "counts": [1, 2, 3], "count": 6,
            "sum": 10.0}}
        h2 = {"type": "histogram", "value": {
            "bounds": [1.0, 10.0], "counts": [1, 2], "count": 3,
            "sum": 5.0}}
        with pytest.raises(MetricError, match="buckets"):
            merge_snapshots([{"h": h1}, {"h": h2}])
        with pytest.raises(MetricError, match="buckets"):
            merge_snapshots([{"h": h2}, {"h": h1}])

    def test_disjoint_counter_sets_union(self):
        merged = merge_snapshots([
            {"only.left": {"type": "counter", "value": 1}},
            {"only.right": {"type": "counter", "value": 2}},
        ])
        assert merged == {
            "only.left": {"type": "counter", "value": 1},
            "only.right": {"type": "counter", "value": 2},
        }
