"""Tests for wires, switches, and NIC models."""

import pytest

from repro.bench.testbed import RawEchoHost, build_raw_pair
from repro.hw import (
    EthernetSegment,
    ForeAtm,
    LanceEthernet,
    PointToPointLink,
    Switch,
    T3Nic,
)
from repro.hw.link import transmission_time_us


def make_host_nic(engine, nic_cls, name, addr, **kwargs):
    host = RawEchoHost(engine, "host-" + name, echo=False)
    nic = nic_cls(engine, name, addr, **kwargs)
    host.add_nic(nic)
    return host, nic


class TestWireMath:
    def test_transmission_time(self):
        assert transmission_time_us(1250, 10e6) == pytest.approx(1000.0)

    def test_ethernet_min_frame_padding(self, engine):
        nic = LanceEthernet(engine, "ln0", b"\x00" * 6)
        assert nic.wire_bytes(20) == 64 + 12
        assert nic.wire_bytes(1000) == 1012

    def test_atm_cell_padding(self, engine):
        nic = ForeAtm(engine, "fa0", "a")
        # 40 payload + 8 AAL5 trailer = 48 -> exactly one 53-byte cell.
        assert nic.wire_bytes(40) == 53
        assert nic.wire_bytes(41) == 106

    def test_t3_framing(self, engine):
        nic = T3Nic(engine, "t3", "t")
        assert nic.wire_bytes(100) == 104


class TestEthernetSegment:
    def test_unicast_delivery(self, engine):
        seg = EthernetSegment(engine)
        host_a, nic_a = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        host_b, nic_b = make_host_nic(engine, LanceEthernet, "b", b"\x0b" * 6)
        host_c, nic_c = make_host_nic(engine, LanceEthernet, "c", b"\x0c" * 6)
        for nic in (nic_a, nic_b, nic_c):
            seg.attach(nic)
        got = {"b": [], "c": []}
        host_b.on_frame = got["b"].append
        host_c.on_frame = got["c"].append

        def send():
            yield from host_a.kernel_path(
                lambda: nic_a.stage_tx(b"x" * 64, b"\x0b" * 6))
        engine.run_process(send())
        engine.run()
        assert len(got["b"]) == 1
        assert got["c"] == []  # filtered by MAC

    def test_broadcast_reaches_all(self, engine):
        seg = EthernetSegment(engine)
        hosts = []
        for tag in (b"\x0a", b"\x0b", b"\x0c"):
            host, nic = make_host_nic(engine, LanceEthernet,
                                      tag.hex(), tag * 6)
            seg.attach(nic)
            hosts.append((host, nic))
        got = []
        hosts[1][0].on_frame = got.append
        hosts[2][0].on_frame = got.append

        def send():
            yield from hosts[0][0].kernel_path(
                lambda: hosts[0][1].stage_tx(b"y" * 64, b"\xff" * 6))
        engine.run_process(send())
        engine.run()
        assert len(got) == 2

    def test_shared_medium_serializes(self, engine):
        """Two senders on one segment cannot overlap transmissions: both
        offer a frame at one instant, and the second goes on the wire
        when the first leaves it."""
        seg = EthernetSegment(engine, propagation_us=0.0)
        host_a, nic_a = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        host_b, nic_b = make_host_nic(engine, LanceEthernet, "b", b"\x0b" * 6)
        host_c, nic_c = make_host_nic(engine, LanceEthernet, "c", b"\x0c" * 6)
        for nic in (nic_a, nic_b, nic_c):
            seg.attach(nic)
        arrivals = []
        host_c.on_frame = lambda data: arrivals.append(engine.now)
        offered, landed = [], []
        transmit, on_wire = seg.transmit, nic_c.frame_on_wire

        def logged_transmit(sender, frame, done):
            offered.append(engine.now)
            transmit(sender, frame, done)

        def logged_on_wire(frame):
            landed.append(engine.now)
            on_wire(frame)
        seg.transmit = logged_transmit
        nic_c.frame_on_wire = logged_on_wire
        frame = bytes(1000)
        wire_us = transmission_time_us(nic_a.wire_bytes(1000), 10e6)

        def send(host, nic):
            yield from host.kernel_path(
                lambda: nic.stage_tx(frame, b"\x0c" * 6))
        engine.process(send(host_a, nic_a))
        engine.process(send(host_b, nic_b))
        engine.run()
        assert len(arrivals) == 2
        start = offered[0]
        assert offered == [start, start]
        assert landed == [start + wire_us, start + wire_us + wire_us]

    def test_promiscuous_mode_sees_everything(self, engine):
        seg = EthernetSegment(engine)
        host_a, nic_a = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        host_b, nic_b = make_host_nic(engine, LanceEthernet, "b", b"\x0b" * 6)
        host_c, nic_c = make_host_nic(engine, LanceEthernet, "c", b"\x0c" * 6)
        for nic in (nic_a, nic_b, nic_c):
            seg.attach(nic)
        nic_c.promiscuous = True
        got = []
        host_c.on_frame = got.append

        def send():
            yield from host_a.kernel_path(
                lambda: nic_a.stage_tx(b"z" * 64, b"\x0b" * 6))
        engine.run_process(send())
        engine.run()
        assert len(got) == 1


class TestPointToPoint:
    def test_full_duplex(self, engine):
        link = PointToPointLink(engine, bandwidth_bps=45e6, propagation_us=1.0)
        host_a, nic_a = make_host_nic(engine, T3Nic, "a", "addr-a")
        host_b, nic_b = make_host_nic(engine, T3Nic, "b", "addr-b")
        link.attach(nic_a)
        link.attach(nic_b)
        arrivals = {"a": [], "b": []}
        host_a.on_frame = lambda d: arrivals["a"].append(engine.now)
        host_b.on_frame = lambda d: arrivals["b"].append(engine.now)

        def send(host, nic, dst):
            yield from host.kernel_path(lambda: nic.stage_tx(bytes(1000), dst))
        engine.process(send(host_a, nic_a, "addr-b"))
        engine.process(send(host_b, nic_b, "addr-a"))
        engine.run()
        # Both directions complete at (nearly) the same time: full duplex.
        assert len(arrivals["a"]) == len(arrivals["b"]) == 1
        assert abs(arrivals["a"][0] - arrivals["b"][0]) < 10.0

    def test_third_endpoint_rejected(self, engine):
        link = PointToPointLink(engine, 45e6)
        for tag in ("a", "b"):
            _, nic = make_host_nic(engine, T3Nic, tag, "addr-" + tag)
            link.attach(nic)
        _, extra = make_host_nic(engine, T3Nic, "c", "addr-c")
        with pytest.raises(ValueError):
            link.attach(extra)


class TestSwitch:
    def test_forwards_to_known_port(self, engine):
        switch = Switch(engine, forward_latency_us=10.0)
        host_a, nic_a = make_host_nic(engine, ForeAtm, "a", "atm-a")
        host_b, nic_b = make_host_nic(engine, ForeAtm, "b", "atm-b")
        switch.new_port().attach(nic_a)
        switch.new_port().attach(nic_b)
        got = []
        host_b.on_frame = lambda d: got.append(engine.now)

        def send():
            yield from host_a.kernel_path(
                lambda: nic_a.stage_tx(bytes(100), "atm-b"))
        engine.run_process(send())
        engine.run()
        assert len(got) == 1
        assert switch.frames_forwarded == 1
        assert switch.frames_flooded == 0

    def test_unknown_destination_floods(self, engine):
        switch = Switch(engine)
        host_a, nic_a = make_host_nic(engine, ForeAtm, "a", "atm-a")
        host_b, nic_b = make_host_nic(engine, ForeAtm, "b", "atm-b")
        switch.new_port().attach(nic_a)
        switch.new_port().attach(nic_b)

        def send():
            yield from host_a.kernel_path(
                lambda: nic_a.stage_tx(bytes(100), "atm-unknown"))
        engine.run_process(send())
        engine.run()
        assert switch.frames_flooded == 1


class TestNicBehaviour:
    def test_oversize_frame_rejected(self, engine):
        host, nic = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)

        def send():
            yield from host.kernel_path(
                lambda: nic.stage_tx(bytes(nic.mtu + nic.link_header + 1),
                                     b"\x0b" * 6))
        with pytest.raises(ValueError, match="MTU"):
            engine.run_process(send())

    def test_rx_ring_overflow_drops(self, engine):
        """A slow host sheds load at the receive ring."""
        engine, initiator, responder, nic_a, nic_b = build_raw_pair("atm")
        responder.echo = False
        nic_b.rx_ring_len = 4
        count = []
        responder.on_frame = count.append

        def blast():
            for _ in range(40):
                yield from initiator.kernel_path(
                    lambda: nic_a.stage_tx(bytes(9000), nic_b.address))
        engine.run_process(blast())
        engine.run()
        assert nic_b.rx_drops > 0
        assert len(count) + nic_b.rx_drops == 40

    def test_pio_charges_per_byte(self, engine):
        host, nic = make_host_nic(engine, ForeAtm, "a", "atm-a")
        marker = host.cpu.begin()
        nic.stage_tx(bytes(1000), "atm-b")
        cost = host.cpu.end(marker)
        host.take_deferred()
        expected = nic.profile.fixed_tx + 1000 * nic.profile.pio_tx_per_byte
        assert cost == pytest.approx(expected)

    def test_dma_charges_fixed_only(self, engine):
        host, nic = make_host_nic(engine, T3Nic, "a", "t3-a")
        marker = host.cpu.begin()
        nic.stage_tx(bytes(4000), "t3-b")
        cost = host.cpu.end(marker)
        host.take_deferred()
        assert cost == pytest.approx(nic.profile.fixed_tx)

    def test_tx_counters(self, engine):
        host, nic = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        marker = host.cpu.begin()
        nic.stage_tx(bytes(100), b"\x0b" * 6)
        host.cpu.end(marker)
        assert nic.tx_frames == 1
        assert nic.tx_bytes == 100
