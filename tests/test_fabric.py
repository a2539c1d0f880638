"""Directed tests for the fat-tree switch fabric.

Covers the pieces the property suite treats as black boxes: the route
table's longest-prefix tie-breaks and replace-on-reinstall, a route miss
counted as a drop, port and table counters exact against a PacketTracer
tally, a scheduled re-route around a core at a deterministic simulated
time, and the open-loop source's statistical contract.
"""

import struct

import pytest

from repro.core.manager import Credential
from repro.fabric.ecmp import ecmp_select
from repro.fabric.topology import (FabricBed, _add_switch, fat_tree,
                                   fat_tree_core_wires,
                                   schedule_core_avoidance)
from repro.fabric.traffic import OpenLoopSource
from repro.hw.alpha import ALPHA_21064
from repro.lang.ephemeral import ephemeral
from repro.net.checksum import internet_checksum
from repro.net.headers import IPPROTO_UDP, ip_aton, pseudo_header_sum
from repro.net.trace import PacketTracer
from repro.sim import Engine

#: ``fat_tree``'s hosts 0 and 1: pod 0 and pod 1, edge 0, slot 0
IP_A = ip_aton("10.0.0.2")
IP_B = ip_aton("10.1.0.2")
PORT = 7000


def make_udp_frame(src_ip, dst_ip, src_port=1111, dst_port=2222,
                   payload=b"x" * 16, ttl=64):
    """A raw-link IPv4/UDP frame with correct checksums."""
    udp_len = 8 + len(payload)
    udp = bytearray(struct.pack(">HHHH", src_port, dst_port, udp_len, 0))
    udp += payload
    folded = internet_checksum(
        udp, initial=pseudo_header_sum(src_ip, dst_ip, IPPROTO_UDP, udp_len))
    udp[6:8] = (folded or 0xFFFF).to_bytes(2, "big")
    header = bytearray(struct.pack(">BBHHHBBHII", 0x45, 0, 20 + udp_len,
                                   0, 0, ttl, IPPROTO_UDP, 0, src_ip, dst_ip))
    header[10:12] = internet_checksum(header).to_bytes(2, "big")
    return bytes(header + udp)


class UdpHarness:
    """Bind a receiver on one fabric host, stream datagrams from another."""

    def __init__(self, bed, src=0, dst=1, dst_ip=IP_B, port=PORT):
        self.bed = bed
        self.engine = bed.engine
        self.src = src
        self.dst_ip = dst_ip
        self.port = port
        self.received = []

        engine = self.engine
        received = self.received

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip_, dst_port):
            received.append((engine.now, bytes(m.to_bytes()[off:])))

        bed.stacks[dst].udp_manager.bind(Credential("fab-test-rx"), port,
                                         handler)
        self.endpoint = bed.stacks[src].udp_manager.bind(
            Credential("fab-test-tx"), port + 1, handler)

    def send(self, payloads, gap_us=400.0):
        engine, endpoint = self.engine, self.endpoint
        host, dst_ip, port = self.bed.hosts[self.src], self.dst_ip, self.port

        def sender():
            for payload in payloads:
                yield engine.timeout(gap_us)
                yield from host.kernel_path(
                    lambda data=payload: endpoint.send(data, dst_ip, port))

        engine.process(sender(), name="fab-test-src")

    def payloads(self):
        return [payload for _, payload in self.received]


def one_switch(routes, n_ports=3):
    """A bed holding one switch with ``n_ports`` ports and ``routes``."""
    bed = FabricBed(Engine(), "spin", 0, "interrupt", ALPHA_21064)
    switch = _add_switch(bed, "sw", [("sw-p%d" % i, "peer-%d" % i)
                                     for i in range(n_ports)], routes)
    return bed, switch


class TestRouteTable:
    def test_lpm_longest_prefix_wins(self):
        _bed, switch = one_switch([
            (0, 0, (0,)), (ip_aton("10.1.0.0"), 16, (1,)),
            (ip_aton("10.1.2.0"), 24, (2,))])

        def egress(dotted):
            return switch.routes.lookup(ip_aton(dotted))

        assert egress("10.1.2.9") == (2,)     # /24 beats /16 beats /0
        assert egress("10.1.9.9") == (1,)
        assert egress("192.0.2.1") == (0,)
        # Replace-on-reinstall: the fresh route wins, no shadowed copy.
        switch.set_route(ip_aton("10.1.2.0"), 24, (1, 2))
        assert egress("10.1.2.9") == (1, 2)
        assert len(switch.routes) == 3
        assert switch.table_updates == 4

    def test_construction_validation(self):
        _bed, switch = one_switch([(0, 0, (0,))])
        for network, prefix_len, ports in ((IP_B, 32, ()), (IP_B, 33, (0,)),
                                           (IP_B, -1, (0,))):
            with pytest.raises(ValueError):
                switch.set_route(network, prefix_len, ports)
        assert (len(switch.routes), switch.table_updates) == (1, 1)


class TestPipeline:
    def test_a_miss_or_an_unparseable_frame_is_dropped(self):
        bed, switch = one_switch([(IP_B, 32, (1,))])
        host, port = switch.host, switch.ports[0]
        frames = [make_udp_frame(IP_A, IP_B), make_udp_frame(IP_A, IP_A),
                  b"\x60" + bytes(40)]

        def feed():
            for frame in frames:
                yield from host.kernel_path(
                    switch._device_input, (port, port.nic, frame))

        bed.engine.process(feed())
        bed.engine.run()
        assert (switch.table_hits, switch.table_misses) == (1, 1)
        assert switch.pipeline_packets == 3
        assert (switch.pipeline_forwarded, switch.pipeline_dropped) == (1, 2)
        assert switch.ports[1].forwarded == 1
        assert bed.switch_conservation() == []

    def test_counters_match_tracer_tally(self):
        bed = fat_tree(2)
        edge, agg = bed.edge_switches[(0, 0)], bed.agg_switches[(0, 0)]
        tracer = PacketTracer(bed.engine)
        tracer.attach(edge.ports[1].nic, link_kind="raw")
        tracer.attach(agg.ports[0].nic, link_kind="raw")
        harness = UdpHarness(bed)
        harness.send([bytes([i]) * 16 for i in range(6)])
        bed.engine.run()
        assert len(harness.received) == 6
        sent_hop = [r for r in tracer.records
                    if r.nic_name == "p1" and r.direction == "tx"]
        recv_hop = [r for r in tracer.records
                    if r.nic_name == "p0" and r.direction == "rx"]
        assert len(sent_hop) == len(recv_hop) == 6
        assert edge.ports[1].forwarded == len(sent_hop)
        assert agg.ports[0].received == len(recv_hop)
        # Every switch on the path hit its table once per datagram.
        assert sorted(switch.table_hits for switch in bed.switches) == [6] * 5
        assert sum(switch.table_misses for switch in bed.switches) == 0
        assert bed.switch_conservation() == []

    def test_mid_run_table_update_is_deterministic(self):
        def run_once(avoid=None):
            bed = fat_tree(4)
            harness = UdpHarness(bed)
            harness.send([bytes([i]) * 8 for i in range(10)], gap_us=1000.0)
            if avoid is not None:
                schedule_core_avoidance(bed, 4_500.0, avoid)
            bed.engine.run()
            assert bed.switch_conservation() == []
            return (harness.payloads(),
                    [bed.core_switches[c].pipeline_packets for c in range(4)],
                    bed.engine.now)

        sent = [bytes([i]) * 8 for i in range(10)]
        payloads, cores, _ = run_once()
        assert payloads == sent
        assert sorted(cores) == [0, 0, 0, 10]  # one flow, one core
        core = cores.index(10)

        first, second = run_once(core), run_once(core)
        assert first == second
        payloads, cores, _ = first
        assert payloads == sent               # the re-route loses nothing
        assert 0 < cores[core] < 10            # it landed mid-run
        assert sum(cores) == 10


class TestTopologies:
    def test_fat_tree_delivers_and_conserves(self):
        bed = fat_tree(4)
        harness = UdpHarness(bed)
        harness.send([b"ft"] * 6)
        bed.engine.run()
        assert len(harness.received) == 6
        assert bed.switch_conservation() == []
        cores = bed.core_switches.values()
        assert sum(s.pipeline_packets for s in cores) == 6
        # Two uplinks at the edge and at the agg: both hops hash.
        assert bed.edge_switches[(0, 0)].ecmp_decisions == 6
        assert sum(bed.agg_switches[(0, a)].ecmp_decisions
                   for a in range(2)) == 6

    def test_fat_tree_core_wires_matches_bed(self):
        bed = fat_tree(4)
        agg_core = tuple(i for i, name in enumerate(bed.wire_names)
                         if name.startswith("agg-core:"))
        assert fat_tree_core_wires(4) == agg_core
        core0 = tuple(i for i, name in enumerate(bed.wire_names)
                      if name.startswith("agg-core:") and name.endswith("c0"))
        assert fat_tree_core_wires(4, core=0) == core0

    def test_fat_tree_rejects_bad_parameters(self):
        for k, hosts_per_edge in ((0, 1), (3, 1), (4, 0), (4, 3)):
            with pytest.raises(ValueError):
                fat_tree(k, hosts_per_edge=hosts_per_edge)
            with pytest.raises(ValueError):
                fat_tree_core_wires(k, hosts_per_edge)
        with pytest.raises(ValueError):
            schedule_core_avoidance(fat_tree(2), 0.0, 0)  # its only core


class TestEcmp:
    def test_deterministic_and_in_range(self):
        for src_port in range(64):
            first = ecmp_select(9, IPPROTO_UDP, IP_A, IP_B, src_port, 80, 4)
            again = ecmp_select(9, IPPROTO_UDP, IP_A, IP_B, src_port, 80, 4)
            assert first == again
            assert 0 <= first < 4

    def test_degenerate_group_sizes(self):
        assert ecmp_select(1, IPPROTO_UDP, IP_A, IP_B, 1, 2, 1) == 0
        with pytest.raises(ValueError):
            ecmp_select(1, IPPROTO_UDP, IP_A, IP_B, 1, 2, 0)

    def test_flows_spread_across_the_group(self):
        counts = [0] * 4
        for src_port in range(512):
            counts[ecmp_select(1996, IPPROTO_UDP, IP_A, IP_B,
                               src_port, 9000, 4)] += 1
        assert min(counts) > 512 // 16         # no starved member
        assert sum(counts) == 512

    def test_seed_perturbs_the_hash(self):
        picks_a = [ecmp_select(1, IPPROTO_UDP, IP_A, IP_B, p, 80, 4)
                   for p in range(64)]
        picks_b = [ecmp_select(2, IPPROTO_UDP, IP_A, IP_B, p, 80, 4)
                   for p in range(64)]
        assert picks_a != picks_b


class TestOpenLoopSource:
    def test_seeded_replay_is_bit_exact(self):
        kwargs = dict(arrival="pareto", arrival_alpha=2.5,
                      size_dist="pareto")
        assert OpenLoopSource(7, **kwargs).schedule(64) == \
            OpenLoopSource(7, **kwargs).schedule(64)
        assert OpenLoopSource(7).schedule(64) != OpenLoopSource(8).schedule(64)

    def test_schedule_prefix_property(self):
        source = OpenLoopSource(11, size_dist="pareto")
        assert source.schedule(50) == source.schedule(130)[:50]

    def test_poisson_gap_mean(self):
        gaps = [gap for gap, _ in OpenLoopSource(3).schedule(4000)]
        mean = sum(gaps) / len(gaps)
        assert 90.0 < mean < 110.0             # fixed seed: no flake margin

    def test_pareto_gap_normalisation_preserves_the_mean(self):
        source = OpenLoopSource(5, arrival="pareto", arrival_alpha=2.5,
                                mean_gap_us=200.0)
        gaps = [gap for gap, _ in source.schedule(4000)]
        mean = sum(gaps) / len(gaps)
        assert 170.0 < mean < 230.0

    def test_sizes_respect_bounds(self):
        fixed = OpenLoopSource(1, fixed_size=256)
        assert {size for _, size in fixed.schedule(32)} == {256}
        pareto = OpenLoopSource(1, size_dist="pareto", min_size=32,
                                max_size=1400)
        sizes = [size for _, size in pareto.schedule(2000)]
        assert all(32 <= size <= 1400 for size in sizes)
        assert max(sizes) == 1400              # the clamp engages
        assert sum(sizes) / len(sizes) > 32

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OpenLoopSource(1, arrival="uniform")
        with pytest.raises(ValueError):
            OpenLoopSource(1, size_dist="bimodal")
        with pytest.raises(ValueError):
            OpenLoopSource(1, mean_gap_us=0.0)
        with pytest.raises(ValueError):
            OpenLoopSource(1, arrival="pareto", arrival_alpha=1.0)
        with pytest.raises(ValueError):
            OpenLoopSource(1, min_size=0)
        with pytest.raises(ValueError):
            OpenLoopSource(1, min_size=200, max_size=100)
