"""Property tests: the switch fabric conserves frames, ECMP is a pure
function of (seed, 5-tuple), and open-loop schedules replay.

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
