"""Property tests: the switch fabric conserves frames, ECMP is a pure
function of (seed, 5-tuple), and partitioned fat-tree runs are
bit-identical to the single-engine build.

Hypothesis draws whole scenarios -- a topology, a traffic schedule, and
an optional extra counting stage spliced into every pipeline -- and
asserts the conservation laws the chaos invariants also check: every
accepted frame meets exactly one fate, and a pure-Count stage never
changes what gets delivered.
"""

from hypothesis import given, settings, strategies as st

from repro.fabric.ecmp import ecmp_select
from repro.fabric.table import Count, MatchTable
from repro.fabric.topology import leaf_spine, linear_chain
from repro.fabric.traffic import OpenLoopSource
from repro.net.headers import IPPROTO_UDP, ip_aton

from test_fabric import IP_B, UdpHarness

TOPOLOGIES = {
    "chain1": lambda: (linear_chain(1), IP_B),
    "chain3": lambda: (linear_chain(3), IP_B),
    "leaf_spine_2x2": lambda: (leaf_spine(2, 2), ip_aton("10.0.1.2")),
    "leaf_spine_3x3": lambda: (leaf_spine(3, 3), ip_aton("10.0.1.2")),
}


@given(
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    count_stage=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_frame_conservation_over_generated_scenarios(topo, count, seed,
                                                     count_stage):
    bed, dst_ip = TOPOLOGIES[topo]()
    if count_stage:
        # A pure-Count stage ends without Forward/Drop, so the walk must
        # fall through to the routing table unchanged.
        for switch in bed.switches:
            tally = MatchTable("tally", "proto")
            tally.set(IPPROTO_UDP, (Count("udp"),))
            switch.tables.insert(0, tally)
    source = OpenLoopSource(seed, mean_gap_us=200.0, size_dist="pareto")
    harness = UdpHarness(bed, dst_ip=dst_ip)
    harness.send([bytes(size) for _, size in source.schedule(count)],
                 gap_us=200.0)
    bed.engine.run()

    assert len(harness.received) == count      # lossless fabric delivers all
    assert bed.switch_conservation() == []
    for switch in bed.switches:
        accepted = sum(port.received for port in switch.ports)
        assert accepted == switch.pipeline_packets
        assert switch.pipeline_forwarded + switch.pipeline_dropped == accepted
        assert sum(port.forwarded for port in switch.ports) \
            == switch.pipeline_forwarded
        if count_stage:
            assert switch.counters.get("udp", 0) == switch.pipeline_packets


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_port=st.integers(min_value=0, max_value=2**16 - 1),
    dst_port=st.integers(min_value=0, max_value=2**16 - 1),
    group=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_ecmp_is_a_pure_function_of_seed_and_5tuple(seed, src_ip, dst_ip,
                                                    src_port, dst_port,
                                                    group):
    pick = ecmp_select(seed, IPPROTO_UDP, src_ip, dst_ip, src_port,
                       dst_port, group)
    assert 0 <= pick < group
    assert pick == ecmp_select(seed, IPPROTO_UDP, src_ip, dst_ip, src_port,
                               dst_port, group)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=40),
    extra=st.integers(min_value=0, max_value=40),
    arrival=st.sampled_from(("poisson", "pareto")),
    size_dist=st.sampled_from(("fixed", "pareto")),
)
@settings(max_examples=60, deadline=None)
def test_open_loop_schedules_replay_and_prefix(seed, n, extra, arrival,
                                               size_dist):
    source = OpenLoopSource(seed, arrival=arrival, arrival_alpha=2.0,
                            size_dist=size_dist)
    schedule = source.schedule(n)
    assert schedule == OpenLoopSource(seed, arrival=arrival,
                                      arrival_alpha=2.0,
                                      size_dist=size_dist).schedule(n)
    assert schedule == source.schedule(n + extra)[:n]
    assert all(gap >= 0.0 and size >= 1 for gap, size in schedule)


class TestPartitionedFatTree:
    """Serial-oracle vs forked executors vs the single-engine build."""

    SCALE = 6

    def test_parallel_matches_serial_oracle(self):
        from repro.bench.workloads import WORKLOADS, run_partitioned
        fabric = WORKLOADS["fabric_fat_tree"]
        serial = run_partitioned(fabric, self.SCALE, 2, parallel=False)
        current = run_partitioned(fabric, self.SCALE, 2, parallel=True)
        assert current["fingerprint"] == serial["fingerprint"]
        assert current["events"] == serial["events"]
        assert current["metrics"] == serial["metrics"]
        assert serial["executor"] == "serial"
        assert current["executor"] == "parallel"

    def test_partitioned_matches_single_engine_totals(self):
        from repro.bench.workloads import (WORKLOADS, run_once,
                                           run_partitioned)
        fabric = WORKLOADS["fabric_fat_tree"]
        single = run_once(fabric, self.SCALE)
        serial = run_partitioned(fabric, self.SCALE, 2, parallel=False)
        for key in ("sent", "received", "bytes", "final_now_us",
                    "switch_forwarded", "switch_dropped", "ecmp"):
            assert serial["fingerprint"][key] == single["fingerprint"][key]

    def test_fabric_fat_tree_is_on_demand_only(self):
        from repro.bench.workloads import WORKLOADS
        assert not WORKLOADS["fabric_fat_tree"].default_suite
