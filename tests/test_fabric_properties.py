"""Property tests: the switch fabric conserves frames, ECMP is a pure
function of (seed, 5-tuple), and open-loop schedules replay.

Hypothesis draws whole scenarios -- a fat-tree, a pair of its hosts and
a traffic schedule -- and asserts the conservation laws the chaos
invariants also check: every accepted frame meets exactly one fate, and
a lossless fabric delivers every datagram.
"""

from hypothesis import given, settings, strategies as st

from repro.fabric.ecmp import ecmp_select
from repro.fabric.topology import fat_tree
from repro.fabric.traffic import OpenLoopSource
from repro.net.headers import IPPROTO_UDP

from test_fabric import UdpHarness


@st.composite
def _scenario(draw):
    """``fat_tree(k, hosts_per_edge)`` and two distinct host indexes."""
    k = draw(st.sampled_from([2, 4]))
    hosts_per_edge = draw(st.integers(1, k // 2))
    n_hosts = k * (k // 2) * hosts_per_edge
    src = draw(st.integers(0, n_hosts - 1))
    dst = draw(st.integers(0, n_hosts - 1).filter(lambda d: d != src))
    return k, hosts_per_edge, src, dst


@given(
    scenario=_scenario(),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_frame_conservation_over_generated_scenarios(scenario, count, seed):
    k, hosts_per_edge, src, dst = scenario
    bed = fat_tree(k, hosts_per_edge=hosts_per_edge)
    source = OpenLoopSource(seed, mean_gap_us=200.0, size_dist="pareto")
    harness = UdpHarness(bed, src=src, dst=dst, dst_ip=bed.ips[dst])
    harness.send([bytes(size) for _, size in source.schedule(count)],
                 gap_us=200.0)
    bed.engine.run()

    assert len(harness.received) == count      # lossless fabric delivers all
    assert bed.switch_conservation() == []
    for switch in bed.switches:
        accepted = sum(port.received for port in switch.ports)
        assert accepted == switch.pipeline_packets
        assert switch.pipeline_forwarded + switch.pipeline_dropped == accepted
        assert switch.pipeline_dropped == 0
        assert sum(port.forwarded for port in switch.ports) \
            == switch.pipeline_forwarded
        assert switch.table_hits == switch.pipeline_forwarded


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
