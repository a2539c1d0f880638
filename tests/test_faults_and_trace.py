"""Failure injection and packet tracing.

TCP must deliver byte-exact streams over lossy and corrupting wires; UDP
checksums must catch wire corruption; the tracer must see and decode the
traffic that made it happen.
"""

import pytest

from repro.bench.testbed import build_testbed
from repro.core import Credential
from repro.hw.link import ImpairmentConfig
from repro.lang import ephemeral
from repro.net.trace import PacketTracer, decode_frame
from repro.sim import Signal


@ephemeral
def _noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


def independent_faults(medium, loss=0.0, corrupt=0.0, seed=1996):
    """Each frame independently lost or corrupted: Gilbert-Elliott loss
    with equal rates in both states."""
    return medium.set_impairments(
        ImpairmentConfig(loss_good=loss, loss_bad=loss, corrupt_rate=corrupt),
        seed=seed)


def tcp_transfer(bed, total=40_000, deadline_us=5_000_000.0):
    """Bulk TCP over the testbed; returns bytes received."""
    engine = bed.engine
    state = {"received": 0, "sent": 0}
    done = Signal(engine)

    def on_accept(tcb):
        def on_data(data):
            state["received"] += len(data)
            if state["received"] >= total:
                bed.hosts[1].defer(done.fire)
        tcb.on_data = on_data
    bed.stacks[1].tcp_manager.listen(Credential("sink"), 9000, on_accept)
    chunk = bytes(8192)

    def run():
        def connect():
            tcb = bed.stacks[0].tcp_manager.connect(
                Credential("src"), bed.ip(1), 9000)

            def pump(_space=None):
                while state["sent"] < total and tcb.send_space > 0:
                    n = tcb.send(chunk[:total - state["sent"]])
                    state["sent"] += n
                    if n == 0:
                        break
            tcb.on_established = pump
            tcb.on_sendable = pump
        yield from bed.hosts[0].kernel_path(connect)
        yield done.wait()
    process = engine.process(run(), name="xfer")
    engine.run(until=engine.now + deadline_us)
    del process
    return state["received"]


class TestFaultInjection:
    def test_tcp_survives_five_percent_loss(self):
        bed = build_testbed("spin", "ethernet")
        independent_faults(bed.medium, loss=0.05, seed=42)
        received = tcp_transfer(bed, total=40_000)
        assert received >= 40_000
        assert bed.medium.frames_lost > 0  # faults actually happened

    def test_tcp_survives_corruption(self):
        """Corrupted segments fail the checksum and are retransmitted."""
        bed = build_testbed("spin", "ethernet")
        independent_faults(bed.medium, corrupt=0.05, seed=7)
        received = tcp_transfer(bed, total=40_000)
        assert received >= 40_000
        assert bed.medium.frames_corrupted > 0
        errors = (bed.stacks[1].tcp.checksum_errors +
                  bed.stacks[1].ip.header_errors +
                  bed.stacks[0].tcp.checksum_errors +
                  bed.stacks[0].ip.header_errors)
        assert errors > 0

    def test_udp_loses_datagrams_on_lossy_wire(self):
        bed = build_testbed("spin", "ethernet")
        independent_faults(bed.medium, loss=0.3, seed=3)
        engine = bed.engine
        seen = []

        @ephemeral
        def count(m, off, src_ip, src_port, dst_ip, dst_port):
            seen.append(1)
        bed.stacks[1].udp_manager.bind(Credential("s"), 7000, count)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        host = bed.hosts[0]

        def blast():
            for _ in range(40):
                yield from host.kernel_path(
                    lambda: sender.send(bytes(64), bed.ip(1), 7000))
        engine.run_process(blast())
        engine.run()
        # UDP offers no recovery: some datagrams are simply gone.
        assert 0 < len(seen) < 40

    def test_fault_rates_validated(self):
        bed = build_testbed("spin", "ethernet")
        with pytest.raises(ValueError):
            independent_faults(bed.medium, loss=1.5)

    def test_fault_injection_is_deterministic(self):
        losses = []
        for _ in range(2):
            bed = build_testbed("spin", "ethernet")
            independent_faults(bed.medium, loss=0.1, seed=99)
            tcp_transfer(bed, total=20_000)
            losses.append(bed.medium.frames_lost)
        assert losses[0] == losses[1]

    def test_video_stream_degrades_gracefully_under_loss(self):
        """UDP video has no recovery: lost datagrams mean lost frames,
        but the stream keeps playing (the application-specific tradeoff
        of paper sec. 1.1)."""
        from repro.apps.video import VIDEO_PORT_BASE, SpinVideoClient, SpinVideoServer
        from repro.core import AppExtension
        bed = build_testbed("spin", "t3")
        independent_faults(bed.medium, loss=0.15, seed=11)
        client = AppExtension.link(SpinVideoClient, bed.hosts[1],
                                   bed.stacks[1].app_domain).state
        server = AppExtension.link(SpinVideoServer, bed.hosts[0],
                                   bed.stacks[0].app_domain).state
        server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames=20)
        bed.engine.run(until=900_000.0)
        assert server.stats.frames_sent == 20
        assert bed.medium.frames_lost > 0
        # Some frames were lost...
        assert client.frames_displayed < 20
        # ...but the stream as a whole survived.
        assert client.frames_displayed > 5

    def test_point_to_point_faults(self):
        bed = build_testbed("spin", "t3")
        independent_faults(bed.medium, loss=0.05, seed=5)
        received = tcp_transfer(bed, total=40_000)
        assert received >= 40_000
        assert bed.medium.frames_lost > 0


class TestDecoder:
    def test_decode_udp_frame(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(32), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.matching("udp 7001>7000")

    def test_decode_tcp_handshake(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        tracer.attach(bed.nics[1])
        bed.stacks[1].tcp_manager.listen(Credential("s"), 9000,
                                         lambda tcb: None)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: bed.stacks[0].tcp_manager.connect(
                Credential("c"), bed.ip(1), 9000)))
        bed.engine.run()
        assert tracer.matching("[SYN]")
        assert tracer.matching("[SYN|ACK]")

    def test_decode_arp(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(8), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.matching("arp")

    def test_decode_raw_link_frames(self):
        bed = build_testbed("spin", "t3")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0], link_kind="raw")
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(8), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.matching("udp 7001>7000")

    def test_decode_fragments(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(4000), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.matching("frag@")

    def test_nocsum_flagged(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop,
                                                checksum=False)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(16), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.matching("nocsum")

    def test_runt_frame(self):
        assert "runt" in decode_frame(b"tiny")

    def test_render_and_limits(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine, limit=2)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def blast():
            for _ in range(5):
                yield from bed.hosts[0].kernel_path(
                    lambda: sender.send(bytes(8), bed.ip(1), 7000))
        bed.engine.run_process(blast())
        bed.engine.run()
        assert len(tracer.records) == 2
        assert tracer.dropped_records > 0
        assert "records dropped" in tracer.render()

    def test_filtered_rx_not_recorded_on_shared_segment(self):
        # Three NICs share one Ethernet segment, so the bystander's NIC
        # sees the unicast frame on the wire and filters it.  The tracer
        # takes the NIC's own verdict: no rx record for the bystander
        # unless its NIC is promiscuous.
        bed = build_testbed("spin", "ethernet", n_hosts=3)
        tracer = PacketTracer(bed.engine)
        for nic in bed.nics:
            tracer.attach(nic)
        bystander = bed.nics[2]
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def rx_nics():
            send = bed.hosts[0].kernel_path(
                lambda: sender.send(bytes(8), bed.ip(1), 7000))
            tracer.clear()
            bed.engine.run_process(send)
            bed.engine.run()
            return [r.nic_name for r in tracer.records if r.direction == "rx"]

        assert rx_nics() == [bed.nics[1].name]
        assert bystander.rx_filtered == 1
        bystander.promiscuous = True
        assert sorted(rx_nics()) == sorted([bed.nics[1].name, bystander.name])
        assert bystander.rx_filtered == 1

    def test_decode_icmp_echo(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: bed.stacks[0].icmp.send_echo_request(
                bed.ip(1), ident=7, seq=3)))
        bed.engine.run()
        assert tracer.matching("icmp echo-request id=7 seq=3")
        assert tracer.matching("icmp echo-reply id=7 seq=3")

    def test_ring_wraparound_keeps_newest_in_order(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine, limit=3)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def blast():
            for size in (8, 16, 24, 32, 40, 48, 56):
                yield from bed.hosts[0].kernel_path(
                    lambda s=size: sender.send(bytes(s), bed.ip(1), 7000))
        bed.engine.run_process(blast())
        bed.engine.run()
        records = tracer.records
        # Exactly the newest `limit` records survive, oldest-first.
        assert len(records) == 3
        assert tracer.dropped_records == 4
        timestamps = [record.time for record in records]
        assert timestamps == sorted(timestamps)
        sizes = [len(record.data) for record in records]
        assert sizes == sorted(sizes)  # payloads grew monotonically
        assert "4 records dropped" in tracer.render()

    def test_ring_limit_validated(self):
        bed = build_testbed("spin", "ethernet")
        with pytest.raises(ValueError):
            PacketTracer(bed.engine, limit=0)

    def test_clear_resets_ring_and_drop_count(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine, limit=2)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def blast():
            for _ in range(4):
                yield from bed.hosts[0].kernel_path(
                    lambda: sender.send(bytes(8), bed.ip(1), 7000))
        bed.engine.run_process(blast())
        bed.engine.run()
        assert tracer.dropped_records > 0
        tracer.clear()
        assert tracer.records == []
        assert tracer.dropped_records == 0

    def test_timeline_queries(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: sender.send(bytes(8), bed.ip(1), 7000)))
        bed.engine.run()
        assert tracer.records
        tracer.clear()
        assert tracer.records == []
