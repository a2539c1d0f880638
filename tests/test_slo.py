"""SLO layer: shared percentiles, request lifecycles, the critical-path
decomposition, the latency suite's determinism, and its gate
semantics."""

import json
import os
import types

import pytest
from hypothesis import given, settings, strategies as st

from latency_model import (CELLS, flight_us, frame_len, hardware, hidden_us,
                           host_steps)
from repro.bench.stats import summarize
from repro.obs.slo import (ATTRIBUTED_COMPONENTS, RequestLifecycle,
                           SloTracker, percentile, to_ns)
from repro.sim import Engine

#: Figure 5's UDP cells: every system but the driver-to-driver floor.
UDP_CELLS = [cell for cell in CELLS if cell[1] != "raw-driver"]


def _advance(engine, us):
    """Move simulated time forward by ``us`` microseconds."""
    def proc():
        yield engine.timeout(us)
    engine.run_process(proc(), name="advance")


class TestPercentile:
    def test_nearest_rank(self):
        samples = [10, 20, 30, 40]
        assert percentile(samples, 0.25) == 10
        assert percentile(samples, 0.5) == 20
        assert percentile(samples, 0.75) == 30
        assert percentile(samples, 0.99) == 40
        assert percentile(samples, 1.0) == 40
        assert percentile([7], 0.999) == 7

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 0.0)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_to_ns_is_profiler_quantization(self):
        assert to_ns(1.0) == 1000
        assert to_ns(0.0004) == 0
        assert to_ns(0.0006) == 1
        assert to_ns(575.4321) == 575432

    def test_summary_shares_the_rank_rule(self):
        samples = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0]
        summary = summarize(samples)
        ordered = sorted(samples)
        assert summary.p50 == percentile(ordered, 0.50)
        assert summary.p99 == percentile(ordered, 0.99)
        assert summary.p999 == percentile(ordered, 0.999)


class TestRequestLifecycle:
    def test_double_end_raises(self):
        lifecycle = RequestLifecycle(Engine())
        request = lifecycle.begin("k")
        lifecycle.end(request)
        with pytest.raises(ValueError):
            lifecycle.end(request)

    def test_unattributed_without_tracker(self):
        engine = Engine()
        lifecycle = RequestLifecycle(engine)
        request = lifecycle.begin("k")
        _advance(engine, 123.456)
        lifecycle.end(request)
        assert request.total_ns == to_ns(123.456)
        assert request.components == {"unattributed": request.total_ns}
        assert request.component_sum_ns() == request.total_ns
        # And the float latency is the historical arithmetic.
        assert request.latency_us == request.end_us - request.begin_us

    def test_percentiles_ns_record(self):
        engine = Engine()
        lifecycle = RequestLifecycle(engine)
        for latency_us in (100.0, 300.0, 200.0):
            request = lifecycle.begin("k")
            _advance(engine, latency_us)
            lifecycle.end(request)
        record = lifecycle.percentiles_ns("k")
        assert record == {"n": 3, "p50_ns": 200000, "p99_ns": 300000,
                          "p999_ns": 300000, "max_ns": 300000,
                          "sum_ns": 600000}
        assert lifecycle.open_requests == 0


class TestFigure5BitIdentity:
    def test_lifecycle_samples_match_inline_collection(self):
        """Figure 5 through the lifecycle is bit-identical to the
        historical hand-kept ``samples.append(engine.now - start)``."""
        from repro.bench.latency import measure_plexus_udp_rtt
        trips = 6
        summary = measure_plexus_udp_rtt("ethernet", trips=trips)
        assert summary.samples == self._inline_collection("ethernet", trips)
        assert summary.n == trips

    @staticmethod
    def _inline_collection(device, trips):
        from repro.bench.testbed import build_testbed
        from repro.core.manager import Credential
        from repro.lang.ephemeral import ephemeral
        from repro.sim import Signal

        bed = build_testbed("spin", device, deliver_mode="interrupt")
        engine = bed.engine
        client_stack, server_stack = bed.stacks
        client_host = bed.hosts[0]
        reply_seen = Signal(engine)
        server_ep = None

        @ephemeral
        def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            payload = bytes(m.to_bytes()[off:])
            server_ep.send(payload, src_ip, src_port)

        @ephemeral
        def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            client_host.defer(reply_seen.fire)

        server_ep = server_stack.udp_manager.bind(
            Credential("pong"), 7002, server_handler, mode="inline")
        client_ep = client_stack.udp_manager.bind(
            Credential("ping"), 7001, client_handler, mode="inline")
        samples = []
        payload = bytes(8)

        def ping_loop():
            for _ in range(trips):
                start = engine.now
                waiter = reply_seen.wait()
                yield from client_host.kernel_path(
                    lambda: client_ep.send(payload, bed.ip(1), 7002))
                yield waiter
                samples.append(engine.now - start)

        engine.run_process(ping_loop(), name="ping")
        return samples


class TestDecomposition:
    def test_udp_probe_reconciles_on_every_flow_cache_rung(self):
        """Under generated dispatch and under the ``scan`` twin."""
        from repro.bench.slo import run_probe
        from twins import scan
        results = {"generated": run_probe("udp_clean")}
        with scan():
            results["scan"] = run_probe("udp_clean")
        for rung, record in results.items():
            assert record["reconciled"], (rung, record["errors"])
            assert record["percentiles"]["completed"] == 10
        assert results["generated"] == results["scan"]
        parts = results["generated"]["components_ns"]
        assert all(value >= 0 for value in parts.values())
        # The paper's claim in decomposition form: the in-kernel RTT is
        # mostly protocol CPU, with a real but smaller wire share.
        assert parts["cpu_service"] > parts["propagation"] > 0

    def test_bursty_loss_raises_p999_and_books_stall(self):
        from repro.bench.slo import run_probe
        clean = run_probe("tcp_clean")
        impaired = run_probe("tcp_impaired")
        assert clean["reconciled"], clean["errors"]
        assert impaired["reconciled"], impaired["errors"]
        assert (impaired["percentiles"]["p999_ns"]
                > clean["percentiles"]["p999_ns"])
        assert (impaired["components_ns"]["stall"]
                > clean["components_ns"]["stall"])


_IMPAIRMENTS = st.fixed_dictionaries({
    "loss_good": st.floats(0.0, 0.03),
    "loss_bad": st.floats(0.1, 0.5),
    "p_good_bad": st.floats(0.01, 0.1),
    "p_bad_good": st.floats(0.1, 0.5),
    "jitter_us": st.floats(0.0, 200.0),
})


class TestReconciliationProperty:
    @settings(max_examples=5, deadline=None)
    @given(wire_seed=st.integers(0, 2 ** 16),
           schedule_seed=st.integers(0, 2 ** 16),
           config_kwargs=_IMPAIRMENTS)
    def test_components_nonnegative_and_telescoping(self, wire_seed,
                                                    schedule_seed,
                                                    config_kwargs):
        lifecycle = self._impaired_run(config_kwargs, wire_seed,
                                       schedule_seed)
        for request in lifecycle.completed:
            assert set(request.components) == set(ATTRIBUTED_COMPONENTS)
            assert all(value >= 0
                       for value in request.components.values()), request
            assert request.component_sum_ns() == request.total_ns, request

    @staticmethod
    def _impaired_run(config_kwargs, wire_seed, schedule_seed, trips=4):
        from repro.bench.testbed import build_testbed
        from repro.fabric.traffic import OpenLoopSource
        from repro.hw.link import ImpairmentConfig

        bed = build_testbed("unix", "atm", deliver_mode="interrupt")
        engine = bed.engine
        client_sockets, server_sockets = bed.sockets
        config = ImpairmentConfig(**config_kwargs)
        for medium in bed.media():
            medium.set_impairments(config, seed=wire_seed)
        tracker = SloTracker(engine).attach(bed.hosts, bed.nics)
        lifecycle = RequestLifecycle(engine, tracker)
        source = OpenLoopSource(seed=schedule_seed, arrival="poisson",
                                mean_gap_us=2000.0, size_dist="fixed",
                                fixed_size=64, min_size=32, max_size=1400)
        gaps = [gap for gap, _size in source.schedule(trips)]
        obj = bytes(1024)

        def server():
            listener = server_sockets.tcp_socket()
            yield from listener.listen(9090, backlog=trips)
            while True:
                child = yield from listener.accept()
                yield from child.send(obj)
                yield from child.close()

        def client():
            for seq, gap in enumerate(gaps):
                yield engine.timeout(gap)
                request = lifecycle.begin("probe", seq)
                sock = client_sockets.tcp_socket()
                yield from sock.connect((bed.ip(1), 9090))
                while True:
                    data = yield from sock.recv()
                    if not data:
                        break
                yield from sock.close()
                lifecycle.end(request)

        engine.process(server(), name="prop-server")
        engine.process(client(), name="prop-client")
        engine.run(until=20_000_000.0)
        tracker.detach()
        return lifecycle


def _tracked_trips(device, system, fast, trips=4):
    """The registry's ``udp_pingpong`` on one Figure 5 cell's bed, each
    trip decomposed by a tracker."""
    from repro.bench.testbed import build_testbed
    from repro.bench.workloads import (PINGPONG, _udp_echo,
                                       _udp_echo_fingerprint, run_scenario)
    unix = system == "digital-unix"
    thread = system == "plexus-thread"
    bed = build_testbed("unix" if unix else "spin", device, fast_driver=fast,
                        deliver_mode="thread" if thread else "interrupt")
    tracker = SloTracker(bed.engine).attach(bed.hosts, bed.nics)
    lifecycle = RequestLifecycle(bed.engine, tracker)
    scenario = {} if unix else {"mode": "thread" if thread else "inline"}
    run_scenario(bed, _udp_echo(**PINGPONG, **scenario), trips,
                 _udp_echo_fingerprint, lifecycle)
    return lifecycle.completed


#: The closed form is in float microseconds and the walk in integer ns:
#: one ns of rounding per waypoint, and no trip's path crosses 20.
_ROUNDING_NS = 20


class TestCriticalPath:
    """The walk against the closed form (``latency_model.py``), which
    computes each Figure 5 cell without running the simulator."""

    def test_the_tracker_listens_to_no_pop(self):
        assert not hasattr(SloTracker, "on_pop")

    @pytest.mark.parametrize("cell", UDP_CELLS,
                             ids=["%s%s/%s" % (device, "-fast" * fast, system)
                                  for device, system, fast in UDP_CELLS])
    def test_steady_trip_is_the_closed_form_term_by_term(self, cell):
        device, system, fast = cell
        nic, medium = hardware(device, fast)
        host = sum(amount for _c, amount, _s in host_steps(*cell))
        hidden = hidden_us(*cell)
        flight = flight_us(nic, medium, frame_len(device, system))
        trip = _tracked_trips(*cell)[-1]
        parts = trip.components
        assert sum(parts.values()) == trip.total_ns
        assert abs(parts["cpu_service"] - 2e3 * (host - hidden)) <= _ROUNDING_NS
        assert abs(parts["nic_ring"] + parts["propagation"]
                   - 2e3 * flight) <= _ROUNDING_NS
        assert abs(trip.overlapped_ns - 2e3 * hidden) <= _ROUNDING_NS
        assert parts["stall"] == 0

    @pytest.mark.parametrize("device", ["ethernet", "atm", "t3"])
    def test_the_dux_gap_is_on_path_cpu(self, device):
        """The paper's comparator: DIGITAL UNIX minus Plexus is CPU on the
        path, not the CPU both hosts charged."""
        spin = _tracked_trips(device, "plexus-interrupt", False)[-1]
        dux = _tracked_trips(device, "digital-unix", False)[-1]
        assert (dux.total_ns - spin.total_ns
                == dux.components["cpu_service"] - spin.components["cpu_service"])
        if device == "ethernet":
            assert dux.total_ns - spin.total_ns == 405_400
            assert dux.components == {"cpu_service": 822_976, "nic_ring": 30_000,
                                      "propagation": 127_600, "stall": 0}
            assert dux.overlapped_ns == 68_000


class TestMidPathJoin:
    @pytest.mark.parametrize("hooked", [False, True],
                             ids=["first-observer", "hook-installed"])
    def test_the_next_request_decomposes_as_if_attached_before(self, hooked):
        """A tracker attached while the server's interrupt path holds the
        CPU -- as the first observer, whose hook that path never pushed
        to, or beside a profiler -- decomposes the next request exactly
        as a tracker attached before the run."""
        from test_obs import _PingPong

        reference = _PingPong()
        reference.attach("slo")
        rig = _PingPong()
        if hooked:
            rig.attach("profiler")
        server = rig.bed.hosts[1]
        joined = []

        def join():
            rig.in_echo = None
            joined.append(server.cpu.held)
            rig.attach("slo")

        for trip in range(4):
            reference.round_trip()
            if trip == 1:
                rig.in_echo = join
            rig.round_trip()
        assert [path.name for path in joined] == ["ln0-intr"]
        assert [(request.total_ns, request.components, request.overlapped_ns)
                for request in rig.lifecycle.completed[2:]] == [
            (request.total_ns, request.components, request.overlapped_ns)
            for request in reference.lifecycle.completed[2:]]


def _fingerprint_side(p50=100, p99=200, p999=300):
    return {"n": 10, "p50_ns": p50, "p99_ns": p99, "p999_ns": p999,
            "max_ns": p999, "sum_ns": 1500, "requested": 10,
            "completed": 10, "still_open": 0}


def _tiny_report():
    parts = {"cpu_service": 900, "nic_ring": 100, "propagation": 400,
             "stall": 100, "unattributed": 0}
    return {
        "legs": {"udp_echo@g400": {
            "open": _fingerprint_side(), "closed": _fingerprint_side(),
            "tail_gap_p99_ns": 0,
        }},
        "decomposition": {"udp_clean": {
            "percentiles": _fingerprint_side(),
            "components_ns": parts, "reconciled": True, "errors": [],
        }},
    }


class TestLatencyGate:
    """The latency suite's rows through the one gate, against a golden
    written by the one projection."""

    @pytest.fixture(autouse=True)
    def _baseline_path(self, tmp_path):
        self.path = str(tmp_path / "latency_baseline.json")

    def _baseline(self, report):
        from repro.bench.slo import load_baseline, write_baseline
        write_baseline(report, self.path)
        return load_baseline(self.path)

    def _judged(self, report, baseline):
        from repro.bench.slo import judge
        with open(self.path, "w") as fh:
            json.dump(baseline, fh)
        return judge(report, self.path)

    def test_matching_baseline_is_clean(self):
        report = _tiny_report()
        rows = self._judged(report, self._baseline(report))
        assert rows and not any(rows.values())

    def test_percentile_drift_is_an_error(self):
        """A seeded 20% p99 drift must fail the gate, not warn."""
        report = _tiny_report()
        baseline = self._baseline(report)
        drifted = baseline["udp_echo@g400"]["fingerprint"]["open"]
        drifted["p99_ns"] = int(drifted["p99_ns"] * 1.2)
        errors = self._judged(report, baseline)["udp_echo@g400"]
        assert any("fingerprint drifted" in error for error in errors)

    def test_missing_row_is_an_error(self):
        report = _tiny_report()
        baseline = self._baseline(report)
        del baseline["udp_echo@g400"]
        rows = self._judged(report, baseline)
        assert rows["udp_echo@g400"] == [
            "no committed baseline for 'udp_echo@g400'"]
        assert rows["decomposition:udp_clean"] == []

    def test_unreconciled_probe_is_an_error(self):
        report = _tiny_report()
        baseline = self._baseline(report)
        probe = report["decomposition"]["udp_clean"]
        probe["reconciled"] = False
        probe["errors"] = ["request r0 does not reconcile"]
        assert self._judged(report, baseline)["decomposition:udp_clean"]


#: The lines around the suite's tables in EXPERIMENTS.md.
_BEGIN = "<!-- python -m repro.bench --latency: begin -->\n```text\n"
_END = "\n```\n<!-- python -m repro.bench --latency: end -->"


def test_the_suite_is_its_golden_and_experiments_md_its_tables():
    """``python -m repro.bench --latency`` at the committed code: every
    row equals ``benchmarks/latency_baseline.json``, and EXPERIMENTS.md's
    tail-latency block is its tables verbatim (regenerate the golden
    with ``--write-baseline`` and paste the tables between the
    markers)."""
    from repro.bench import slo
    report = slo.run_latency_suite()
    assert slo.judge(report) == {name: [] for name in slo.rows(report)}
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "EXPERIMENTS.md"),
            encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(_BEGIN) == 1 and text.count(_END) == 1
    assert text.split(_BEGIN)[1].split(_END)[0] == slo.render(report)



class TestHarnessDeterminism:
    def test_leg_schedule_is_a_pure_function_of_the_name(self):
        from repro.bench.workloads import schedule
        assert schedule("udp_echo@g400", 20) == schedule("udp_echo@g400", 20)
        assert len(schedule("udp_echo@g400", 20)) == 20

    def test_leg_rerun_is_bit_identical(self):
        from repro.bench.slo import run_leg, run_probe

        def run():
            return run_leg("udp_echo@g2000"), run_probe("udp_clean")

        assert run() == run()


class TestChaosSloInvariant:
    def test_reconciliation_invariant(self):
        from repro.chaos.invariants import INVARIANTS
        check = INVARIANTS["slo_reconciliation"]
        engine = Engine()
        lifecycle = RequestLifecycle(engine)
        request = lifecycle.begin("k")
        _advance(engine, 42.0)
        lifecycle.end(request)
        ctx = types.SimpleNamespace(
            state=types.SimpleNamespace(lifecycle=lifecycle))
        assert check(ctx) == []
        request.components["unattributed"] += 1  # corrupt the account
        assert check(ctx)

    def test_stateless_workloads_trivially_pass(self):
        from repro.chaos.invariants import INVARIANTS
        check = INVARIANTS["slo_reconciliation"]
        ctx = types.SimpleNamespace(state=types.SimpleNamespace())
        assert check(ctx) == []
