"""Directed tests for the match-action switch fabric.

Covers the pieces the property suite treats as black boxes: LPM
longest-prefix tie-breaks, table-miss default actions and fall-through,
Modify + checksum re-folding (IP always, L4 when the pseudo-header
changed), counter exactness against a PacketTracer tally, mid-run table
updates at a deterministic simulated time, and the open-loop source's
statistical contract.
"""

import struct

import pytest

from repro.core.manager import Credential
from repro.fabric.ecmp import ecmp_select
from repro.fabric.table import (Count, Drop, Forward, MatchTable, Modify,
                                PacketFields, apply_modify, refold_checksums)
from repro.fabric.topology import (fat_tree, fat_tree_core_wires, leaf_spine,
                                   linear_chain)
from repro.fabric.traffic import OpenLoopSource
from repro.lang.ephemeral import ephemeral
from repro.net.checksum import internet_checksum
from repro.net.headers import IPPROTO_UDP, ip_aton, pseudo_header_sum
from repro.net.trace import PacketTracer

IP_A = ip_aton("10.0.0.2")
IP_B = ip_aton("10.0.1.2")
PORT = 7000


def make_udp_frame(src_ip, dst_ip, src_port=1111, dst_port=2222,
                   payload=b"x" * 16, ttl=64, tos=0, zero_udp_cksum=False):
    """A raw-link IPv4/UDP frame with correct checksums (unless opted out)."""
    udp_len = 8 + len(payload)
    udp = bytearray(struct.pack(">HHHH", src_port, dst_port, udp_len, 0))
    udp += payload
    if not zero_udp_cksum:
        folded = internet_checksum(
            udp, initial=pseudo_header_sum(src_ip, dst_ip, IPPROTO_UDP,
                                           udp_len))
        udp[6:8] = (folded or 0xFFFF).to_bytes(2, "big")
    header = bytearray(struct.pack(">BBHHHBBHII", 0x45, tos, 20 + udp_len,
                                   0, 0, ttl, IPPROTO_UDP, 0, src_ip, dst_ip))
    header[10:12] = internet_checksum(header).to_bytes(2, "big")
    return bytes(header + udp)


def ip_checksum_ok(frame) -> bool:
    header_len = (frame[0] & 0x0F) * 4
    return internet_checksum(frame[:header_len]) == 0


def udp_checksum_ok(frame) -> bool:
    header_len = (frame[0] & 0x0F) * 4
    src = int.from_bytes(frame[12:16], "big")
    dst = int.from_bytes(frame[16:20], "big")
    segment = frame[header_len:]
    return internet_checksum(
        segment, initial=pseudo_header_sum(src, dst, IPPROTO_UDP,
                                           len(segment))) == 0


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


class TestMatchTable:
    def _fields_for(self, dst_ip, dst_port=2222):
        return PacketFields(make_udp_frame(IP_A, dst_ip, dst_port=dst_port))

    def test_lpm_longest_prefix_wins(self):
        table = MatchTable("l3", "dst_ip", kind="lpm")
        table.set(0, (Forward(0),), prefix_len=0)
        table.set(ip_aton("10.1.0.0"), (Forward(1),), prefix_len=16)
        table.set(ip_aton("10.1.2.0"), (Forward(2),), prefix_len=24)

        def egress(dotted):
            return table.lookup(self._fields_for(ip_aton(dotted)))[0].ports

        assert egress("10.1.2.9") == (2,)     # /24 beats /16 beats /0
        assert egress("10.1.9.9") == (1,)
        assert egress("192.0.2.1") == (0,)
        # Replace-on-reinstall: the fresh entry wins, no shadowed copy.
        table.set(ip_aton("10.1.2.0"), (Forward(5),), prefix_len=24)
        assert egress("10.1.2.9") == (5,)
        assert table.remove(ip_aton("10.1.2.0"), prefix_len=24)
        assert egress("10.1.2.9") == (1,)     # falls back to the /16

    def test_exact_miss_uses_default_actions(self):
        table = MatchTable("acl", "dst_port", default=(Drop(),))
        table.set(2222, (Forward(0),))
        hit = table.lookup(self._fields_for(IP_B, dst_port=2222))
        assert isinstance(hit[0], Forward)
        miss = table.lookup(self._fields_for(IP_B, dst_port=9999))
        assert isinstance(miss[0], Drop)
        assert (table.hits, table.misses) == (1, 1)

    def test_miss_with_no_default_returns_none(self):
        table = MatchTable("acl", "dst_port")
        assert table.lookup(self._fields_for(IP_B)) is None
        assert table.misses == 1

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            MatchTable("t", "payload_len")
        with pytest.raises(ValueError):
            MatchTable("t", "dst_ip", kind="ternary")
        with pytest.raises(ValueError):
            MatchTable("t", "dst_port", kind="lpm")
        with pytest.raises(ValueError):
            MatchTable("t", "dst_port").set(1, (Forward(0),), prefix_len=8)
        with pytest.raises(ValueError):
            MatchTable("t", "dst_ip", kind="lpm").set(1, (Forward(0),))
        with pytest.raises(ValueError):
            MatchTable("t", "dst_port").set(1, ())
        with pytest.raises(ValueError):
            Forward()
        with pytest.raises(ValueError):
            Modify("dst_port", 1)

    @pytest.mark.parametrize("field, value", [
        ("dst_ip", 1 << 32), ("dst_ip", -1), ("src_ip", 1 << 32),
        ("ttl", 256), ("ttl", 300), ("ttl", -1), ("tos", 256),
        ("tos", -1), ("ttl", 7.0)])
    def test_modify_rejects_a_value_its_field_cannot_hold(self, field,
                                                          value):
        # Accepted, such a value failed every frame it matched inside the
        # contained handler (an address), or wrote its low byte (a TTL).
        with pytest.raises(ValueError):
            Modify(field, value)

    def test_modify_takes_each_field_s_whole_range(self):
        for field, top in (("ttl", 0xFF), ("tos", 0xFF),
                           ("src_ip", 0xFFFFFFFF), ("dst_ip", 0xFFFFFFFF)):
            assert Modify(field, 0).value == 0
            assert Modify(field, top).value == top


class TestChecksumRefold:
    def test_parse_udp_frame(self):
        frame = make_udp_frame(IP_A, IP_B, src_port=1111, dst_port=2222,
                               ttl=17, tos=0x10)
        fields = PacketFields(frame)
        assert fields.ok
        assert (fields.src_ip, fields.dst_ip) == (IP_A, IP_B)
        assert (fields.src_port, fields.dst_port) == (1111, 2222)
        assert (fields.proto, fields.ttl, fields.tos) == (IPPROTO_UDP, 17,
                                                          0x10)

    def test_truncated_frame_is_not_ok(self):
        assert not PacketFields(b"\x45\x00\x00").ok
        assert not PacketFields(b"\x60" + b"\x00" * 30).ok  # IPv6 version

    def test_modify_dst_ip_refolds_l4(self):
        frame = bytearray(make_udp_frame(IP_A, IP_B))
        fields = PacketFields(frame)
        new_dst = ip_aton("10.0.9.9")
        refold_l4 = apply_modify(frame, fields, Modify("dst_ip", new_dst))
        assert refold_l4 and fields.dst_ip == new_dst
        refold_checksums(frame, refold_l4)
        assert ip_checksum_ok(frame)
        assert udp_checksum_ok(frame)

    def test_modify_ttl_keeps_l4_checksum_bytes(self):
        frame = bytearray(make_udp_frame(IP_A, IP_B))
        before = bytes(frame[26:28])  # UDP checksum field
        fields = PacketFields(frame)
        refold_l4 = apply_modify(frame, fields, Modify("ttl", 3))
        assert not refold_l4
        refold_checksums(frame, refold_l4)
        assert frame[8] == 3 and ip_checksum_ok(frame)
        assert bytes(frame[26:28]) == before

    def test_udp_zero_checksum_stays_zero(self):
        frame = bytearray(make_udp_frame(IP_A, IP_B, zero_udp_cksum=True))
        fields = PacketFields(frame)
        refold_l4 = apply_modify(frame, fields,
                                 Modify("dst_ip", ip_aton("10.0.9.9")))
        refold_checksums(frame, refold_l4)
        assert ip_checksum_ok(frame)
        assert bytes(frame[26:28]) == b"\x00\x00"  # RFC 768 opt-out


class TestPipeline:
    def test_single_switch_chain_delivers(self):
        # Regression: with one switch, host B hangs off port 1, not a
        # second tap on port 0's wire.
        bed = linear_chain(1)
        harness = UdpHarness(bed)
        harness.send([bytes([i]) * 32 for i in range(5)])
        bed.engine.run()
        assert harness.payloads() == [bytes([i]) * 32 for i in range(5)]
        switch = bed.switches[0]
        assert switch.pipeline_packets == switch.pipeline_forwarded == 5
        assert switch.pipeline_dropped == 0
        assert bed.switch_conservation() == []

    def test_miss_falls_through_then_default_drops(self):
        bed = linear_chain(1)
        switch = bed.switches[0]
        acl = MatchTable("acl", "dst_port")   # no entries, no default
        switch.tables.insert(0, acl)
        harness = UdpHarness(bed)
        harness.send([b"a"] * 3)
        bed.engine.run()
        assert len(harness.received) == 3     # miss fell through to l3
        assert acl.misses == 3

        acl.default = (Count("acl-drops"), Drop())
        harness.send([b"b"] * 4)
        bed.engine.run()
        assert len(harness.received) == 3     # the default now drops
        assert switch.counters["acl-drops"] == 4
        assert switch.pipeline_dropped == 4
        assert bed.switch_conservation() == []

    def test_modify_ttl_counts_and_survives_receiver_checks(self):
        bed = linear_chain(1)
        switch = bed.switches[0]
        switch.tables[0].set(
            IP_B, (Count("rewritten"), Modify("ttl", 7), Forward(1)),
            prefix_len=32)
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[1], link_kind="raw")
        harness = UdpHarness(bed)
        harness.send([b"m"] * 4)
        bed.engine.run()
        assert len(harness.received) == 4
        assert switch.counters["rewritten"] == 4
        assert switch.pipeline_modified == 4
        arrived = [r for r in tracer.records if r.direction == "rx"]
        assert len(arrived) == 4
        for record in arrived:
            assert record.data[8] == 7
            assert ip_checksum_ok(record.data)
            assert udp_checksum_ok(record.data)

    def test_modify_dst_ip_rewrites_like_nat(self):
        bed = linear_chain(1)
        switch = bed.switches[0]
        vip = ip_aton("10.0.9.9")
        switch.tables[0].set(vip, (Modify("dst_ip", IP_B), Forward(1)),
                             prefix_len=32)
        bed.stacks[0].rawlink.add_neighbor(vip, "fx-c0.0")
        harness = UdpHarness(bed, dst_ip=vip)
        harness.send([b"nat"] * 3)
        bed.engine.run()
        # The receiver only accepts its own IP, so delivery proves the
        # rewrite landed with valid IP + pseudo-header UDP checksums.
        assert len(harness.received) == 3
        assert switch.pipeline_modified == 3

    def test_counters_match_tracer_tally(self):
        bed = linear_chain(2)
        for switch in bed.switches:
            switch.tables[0].set(IP_B, (Count("a2b"), Forward(1)),
                                 prefix_len=32)
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.switches[0].ports[1].nic, link_kind="raw")
        tracer.attach(bed.switches[1].ports[0].nic, link_kind="raw")
        harness = UdpHarness(bed)
        harness.send([bytes([i]) * 16 for i in range(6)])
        bed.engine.run()
        assert len(harness.received) == 6
        sent_hop = [r for r in tracer.records
                    if r.nic_name == "p1" and r.direction == "tx"]
        recv_hop = [r for r in tracer.records
                    if r.nic_name == "p0" and r.direction == "rx"]
        for switch in bed.switches:
            assert switch.counters["a2b"] == len(sent_hop) == len(recv_hop) \
                == 6
        assert bed.switches[0].ports[1].forwarded == len(sent_hop)
        assert bed.switches[1].ports[0].received == len(recv_hop)

    def test_mid_run_table_update_is_deterministic(self):
        def run_once():
            bed = linear_chain(1)
            switch = bed.switches[0]
            harness = UdpHarness(bed)
            harness.send([bytes([i]) * 8 for i in range(10)], gap_us=1000.0)

            def cutover(_event=None):
                switch.tables[0].set(IP_B, (Drop(),), prefix_len=32)

            bed.engine.call_at(4_500.0, cutover)
            bed.engine.run(until=40_000.0)
            assert bed.switch_conservation() == []
            return (harness.payloads(), switch.pipeline_dropped,
                    bed.engine.now)

        first, second = run_once(), run_once()
        assert first == second
        payloads, dropped, _ = first
        assert 0 < len(payloads) < 10          # the cutover landed mid-run
        assert dropped == 10 - len(payloads)   # every frame met one fate


class TestTopologies:
    def test_leaf_spine_delivers_and_conserves(self):
        bed = leaf_spine(2, 2)
        harness = UdpHarness(bed, src=0, dst=1, dst_ip=ip_aton("10.0.1.2"))
        harness.send([b"ls"] * 6)
        bed.engine.run()
        assert len(harness.received) == 6
        assert bed.switch_conservation() == []
        spines = [s for s in bed.switches if s.name.startswith("fab-s")]
        leaf0 = next(s for s in bed.switches if s.name == "fab-l0")
        assert sum(s.pipeline_packets for s in spines) == 6
        assert leaf0.ecmp_decisions == 6       # 2 spines -> every uplink hashes

    def test_fat_tree_core_wires_matches_bed(self):
        bed = fat_tree(4)
        agg_core = tuple(i for i, name in enumerate(bed.wire_names)
                         if name.startswith("agg-core:"))
        assert fat_tree_core_wires(4) == agg_core
        core0 = tuple(i for i, name in enumerate(bed.wire_names)
                      if name.startswith("agg-core:") and name.endswith("c0"))
        assert fat_tree_core_wires(4, core=0) == core0

    def test_linear_chain_rejects_empty(self):
        with pytest.raises(ValueError):
            linear_chain(0)
        with pytest.raises(ValueError):
            leaf_spine(1, 1)


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
