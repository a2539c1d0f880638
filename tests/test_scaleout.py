"""Scale-out tests: timer wheel, many-flow workload, LRU flow cache,
port-reference indexing, and the parallel bench runner.

The load-bearing property here is *bit-identical simulated time*: the
timer wheel, the indexed demultiplexing, and the process-pool runner are
all wall-clock optimizations that must be unobservable on the simulated
timeline.  The hypothesis test drives a wheel-backed engine and a
heap-only engine with the same randomized schedule/cancel program and
requires the exact same firing order and timestamps.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import WORKLOADS, run_once
from repro.sim import Engine
from repro.spin.flowcache import FlowCache

from nethelpers import make_pair


# ---------------------------------------------------------------------------
# timer wheel vs heap equivalence
# ---------------------------------------------------------------------------

def _heap_schedule(engine, delay_us, callback, priority=0):
    """The pre-wheel path: claim a sequence and push the heap tuple now."""
    event = engine._checkout(None, None)
    event.callbacks.append(callback)
    engine._sequence += 1
    heapq.heappush(engine._heap,
                   (engine.now + delay_us, priority, engine._sequence, event))


def _run_program(ops, use_wheel):
    """Run a schedule/cancel program; returns [(op index, fire time)]."""
    engine = Engine()
    fired = []
    flags = []
    handles = []

    def driver():
        for index, (gap, delay, priority, cancel) in enumerate(ops):
            yield engine.timeout(float(gap))
            flag = {"cancelled": False}
            flags.append(flag)

            def callback(_event, index=index, flag=flag):
                if not flag["cancelled"]:
                    fired.append((index, engine.now))

            if use_wheel:
                handles.append(
                    engine.wheel.schedule(float(delay), callback, priority))
            else:
                handles.append(None)
                _heap_schedule(engine, float(delay), callback, priority)
            if cancel is not None:
                victim = cancel % len(handles)
                # Cancellation is flag-based in both engines (that is what
                # repro.hw.host.Timer does); the wheel additionally drops
                # the carcass from its bucket.
                flags[victim]["cancelled"] = True
                if handles[victim] is not None:
                    handles[victim].cancel()

    engine.process(driver(), name="schedule-program")
    engine.run()
    return fired, engine.now


# Delay bands chosen to land in every wheel level plus the two bypasses:
# already-due (level-0 cursor), levels 0-2, and beyond-horizon (straight
# to the heap).
_delays = st.one_of(
    st.integers(0, 2_000),               # level 0 (256 us buckets)
    st.integers(0, 500_000),             # level 1
    st.integers(0, 30_000_000),          # level 2
    st.integers(0, 6_000_000_000),       # partly beyond the horizon
)

_ops = st.lists(
    st.tuples(st.integers(0, 3_000),     # gap before this op
              _delays,                   # timer delay
              st.integers(0, 3),         # priority
              st.one_of(st.none(), st.integers(0, 100))),  # cancel victim
    min_size=1, max_size=30)


class TestWheelHeapEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(_ops)
    def test_identical_firing_order_and_timestamps(self, ops):
        wheel_fired, wheel_now = _run_program(ops, use_wheel=True)
        heap_fired, heap_now = _run_program(ops, use_wheel=False)
        assert wheel_fired == heap_fired
        # The observable timeline (every fire) is identical.  The final
        # *idle* clock may differ: a cancelled carcass still pops off the
        # heap engine and drags its clock forward, while the wheel drops
        # it in its bucket -- so the wheel engine can only finish earlier.
        assert wheel_now <= heap_now
        if wheel_fired:
            assert wheel_now >= wheel_fired[-1][1]

    def test_cancelled_timer_never_fires(self):
        engine = Engine()
        fired = []
        handle = engine.wheel.schedule(1_000.0, lambda e: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert engine.wheel.pending == 0

    def test_same_bucket_fires_in_schedule_order(self):
        engine = Engine()
        fired = []
        # Same deadline, same priority: sequence (claimed at schedule
        # time) must break the tie in schedule order even though both
        # share one level-0 bucket.
        engine.wheel.schedule(100.0, lambda e: fired.append("first"))
        engine.wheel.schedule(100.0, lambda e: fired.append("second"))
        engine.run()
        assert fired == ["first", "second"]
        assert engine.now == 100.0

    def test_beyond_horizon_goes_straight_to_heap(self):
        engine = Engine()
        fired = []
        engine.wheel.schedule(1e12, lambda e: fired.append(engine.now))
        assert engine.wheel.fired_direct == 1
        assert engine.wheel.pending == 0  # heap-resident, not parked
        engine.run()
        assert fired == [1e12]


# ---------------------------------------------------------------------------
# many-flow workload
# ---------------------------------------------------------------------------

class TestManyFlows:
    def test_quick_scale_meets_the_floor(self):
        # The acceptance bar: the quick bench run simulates >= 2000
        # concurrent flows.
        assert WORKLOADS["many_flows"].quick >= 2_000

    def test_all_flows_complete_and_overlap(self):
        record = run_once(WORKLOADS["many_flows"], 400)
        fp = record["fingerprint"]
        assert fp["tcp_done"] == 200
        assert fp["udp_done"] == 200
        # Every TCP flow is open at once (the stagger is much shorter
        # than a connection lifetime): this is a concurrency test, not
        # just a completion test.
        assert fp["peak_conns"] == 200
        # 512 B pushed per TCP flow + 128 B echoed per UDP flow.
        assert fp["bytes_in"] == 200 * 512 + 200 * 128
        assert record["events"] > 0
        # Host-side metrics exist but are not fingerprint material.
        assert "per_flow_kb" in record
        assert "per_flow_kb" not in fp

    def test_fingerprint_ignores_flow_cache_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        with_cache = run_once(WORKLOADS["many_flows"], 200)["fingerprint"]
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        without_cache = run_once(WORKLOADS["many_flows"], 200)["fingerprint"]
        assert with_cache == without_cache


# ---------------------------------------------------------------------------
# flow-cache LRU
# ---------------------------------------------------------------------------

class TestFlowCacheLru:
    def test_eviction_is_least_recently_used(self):
        cache = FlowCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.entry_for((key,))
        cache.entry_for(("a",))          # recency order is now b, c, a
        cache.entry_for(("d",))          # evicts b, the coldest
        assert ("b",) not in cache.entries
        assert set(cache.entries) == {("a",), ("c",), ("d",)}
        assert cache.evictions == 1

    def test_touch_preserves_entry_identity(self):
        cache = FlowCache(capacity=2)
        entry = cache.entry_for(("flow",))
        entry.plans["event"] = "plan"
        assert cache.entry_for(("flow",)) is entry
        cache.entry_for(("other",))
        # Touching must not have discarded the compiled plans.
        assert cache.entry_for(("flow",)).plans == {"event": "plan"}

    def test_repeat_memo_does_not_break_recency(self):
        cache = FlowCache(capacity=2)
        cache.entry_for((1,))
        cache.entry_for((1,))            # memoized repeat (the hot case)
        cache.entry_for((2,))
        cache.entry_for((1,))            # real re-touch: order is 2, 1
        cache.entry_for((3,))            # evicts 2
        assert set(cache.entries) == {(1,), (3,)}

    def test_counters_stay_consistent_under_churn(self):
        cache = FlowCache(capacity=8)
        for i in range(1_000):
            cache.entry_for((i % 50,))
        # 50 distinct keys cycling through 8 slots: every access misses,
        # so each of the 1000 inserts past the first 8 evicted one entry.
        assert len(cache.entries) == 8
        assert cache.counters()["entries"] == 8
        assert cache.evictions == 1_000 - 8

    def test_capacity_is_validated_at_construction(self):
        assert FlowCache().capacity == FlowCache.DEFAULT_CAPACITY
        # -1 used to escape entry_for() as a bare StopIteration and 0
        # silently became the default.
        for bad in (0, -1, 2.5, "2"):
            with pytest.raises(ValueError):
                FlowCache(capacity=bad)
        cache = FlowCache(capacity=1)
        cache.entry_for((1,))
        cache.entry_for((2,))
        assert list(cache.entries) == [(2,)]
        assert cache.evictions == 1

    def test_disabled_cache_caches_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        cache = FlowCache(capacity=2)
        assert cache.entry_for(("flow",)) is None
        assert cache.entries == {}


# ---------------------------------------------------------------------------
# TCP local-port index
# ---------------------------------------------------------------------------

class TestPortIndex:
    def test_refs_track_connections_and_drain(self):
        engine, wire, a, b = make_pair()
        accepted = []
        b.tcp.listen(9000, accepted.append)
        clients = []

        def connect():
            clients.append(a.tcp.connect(b.my_ip, 9000))

        a.run_kernel(connect)
        a.run_kernel(connect)
        engine.run()
        ports = [tcb.lport for tcb in clients]
        assert len(set(ports)) == 2
        assert a.tcp._lport_refs == {ports[0]: 1, ports[1]: 1}
        for tcb in clients:
            a.run_kernel(tcb.close)
        for tcb in accepted:
            b.run_kernel(tcb.close)
        engine.run()  # through TIME_WAIT; forget() drops the refs
        assert a.tcp.connections == {}
        assert a.tcp._lport_refs == {}

    def test_allocate_port_skips_ports_in_use(self):
        engine, wire, a, b = make_pair()
        b.tcp.listen(9000, lambda tcb: None)
        clients = []
        base = a.tcp.EPHEMERAL_BASE

        def connect_pinned():
            clients.append(a.tcp.connect(b.my_ip, 9000, lport=base))

        def connect_auto():
            clients.append(a.tcp.connect(b.my_ip, 9000))

        a.run_kernel(connect_pinned)
        engine.run()
        # The allocator's probe starts at base, which is now bound: it
        # must skip it in O(1) rather than scan every connection.
        a.run_kernel(connect_auto)
        engine.run()
        assert clients[1].lport == base + 1


# ---------------------------------------------------------------------------
# parallel bench runner
# ---------------------------------------------------------------------------

class TestBenchRunner:
    def test_task_seed_is_stable_and_distinct(self):
        from repro.bench.runner import task_seed
        assert task_seed("figure5") == task_seed("figure5")
        assert task_seed("figure5") != task_seed("figure6")

    def test_report_is_byte_identical_across_jobs(self):
        from repro.bench.runner import run_report
        serial = run_report(quick=True, jobs=1)
        sharded = run_report(quick=True, jobs=2)
        assert serial == sharded

    def test_report_sections_merge_in_declaration_order(self):
        from repro.bench.report import SECTIONS
        from repro.bench.runner import run_report_sections
        sections = run_report_sections(quick=True, jobs=1)
        assert [name for name, _text in sections] == \
            [name for name, _fn in SECTIONS]

    def test_wallclock_fingerprints_match_across_jobs(self):
        from repro.bench.runner import run_wallclock_suite
        names = ["dispatcher_micro", "udp_pingpong"]
        serial, _oracle = run_wallclock_suite(names, [], quick=True, jobs=1)
        sharded, _oracle = run_wallclock_suite(names, [], quick=True, jobs=2)
        assert list(serial) == names
        assert list(sharded) == names
        for name in names:
            assert serial[name]["fingerprint"] == sharded[name]["fingerprint"]
