"""Tests for UDP, Ethernet framing, and ARP."""

import pytest

from repro.bench.testbed import build_testbed
from repro.core import Credential
from repro.lang import VIEW, ephemeral
from repro.net import (
    ETHERNET_HEADER,
    ETHERTYPE_IP,
    UDP_HEADER,
    ip_aton,
    mac_aton,
)

from nethelpers import make_pair, put_frame, udp_datagram


def send_udp(stack, payload, dst, sport=5000, dport=6000, checksum=True):
    def work():
        m = stack.host.mbufs.from_bytes(payload, leading_space=64)
        stack.udp.output(m, sport, dst, dport, checksum=checksum)
    stack.run_kernel(work)


class TestUdp:
    def test_roundtrip_fields(self):
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = (lambda m, off, src, sport, dst, dport:
                        got.append((bytes(m.to_bytes()[off:]), src, sport,
                                    dst, dport)))
        send_udp(a, b"data!", b.my_ip, sport=1234, dport=4321)
        engine.run()
        assert got == [(b"data!", a.my_ip, 1234, b.my_ip, 4321)]
        assert a.udp.datagrams_out == 1
        assert b.udp.datagrams_in == 1

    def test_checksum_detects_corruption(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(bytearray(data)) or True
        send_udp(a, b"payload", b.my_ip)
        engine.run()
        packet = captured[0]
        packet[-1] ^= 0x01  # flip a payload bit; fix the IP header? payload
        # is beyond the IP header checksum, only UDP covers it.

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        b.run_kernel(misdeliver)
        engine.run()
        assert b.udp.checksum_errors == 1
        assert b.udp.datagrams_in == 0

    def test_checksum_disabled_skips_verification(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(bytearray(data)) or True
        send_udp(a, b"payload", b.my_ip, checksum=False)
        engine.run()
        packet = captured[0]
        view = VIEW(packet, UDP_HEADER, offset=20)
        assert view.checksum == 0  # zero checksum on the wire
        packet[-1] ^= 0x01  # corruption goes undetected by design
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(True)

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        b.run_kernel(misdeliver)
        engine.run()
        assert got == [True]
        assert b.udp.checksums_skipped >= 1

    def test_header_without_headroom_is_checksummed(self):
        # No leading space: the UDP and IP header pushes each copy the
        # packet into a fresh store, and the checksum covers the new one.
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(bytes(m.to_bytes()[off:]))

        def work():
            m = a.host.mbufs.from_bytes(b"no headroom", leading_space=0)
            a.udp.output(m, 5000, b.my_ip, 6000)
        a.run_kernel(work)
        engine.run()
        assert got == [b"no headroom"]
        assert b.udp.checksum_errors == 0

    def test_invalid_port_rejected(self):
        engine, wire, a, b = make_pair()

        def work():
            m = a.host.mbufs.from_bytes(b"x", leading_space=64)
            a.udp.output(m, 0, b.my_ip, 6000)
        with pytest.raises(ValueError):
            engine.run_process(a.host.kernel_path(work))

    def test_truncated_header_ignored(self):
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = lambda *args: got.append(args)

        def work():
            m = b.host.mbufs.from_bytes(b"\x01\x02\x03")  # 3 bytes < 8
            b.udp.input(m, 0, a.my_ip, b.my_ip)
        b.run_kernel(work)
        engine.run()
        assert got == []
        assert b.udp.header_errors == 1

    def test_length_past_the_packet_counted(self):
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = lambda *args: got.append(args)

        def work():
            header = bytearray(UDP_HEADER.size)
            UDP_HEADER.pack_into(header, 0, 5000, 6000, 64, 0)  # 12 carried
            m = b.host.mbufs.from_bytes(bytes(header) + b"abcd")
            b.udp.input(m, 0, a.my_ip, b.my_ip)
        b.run_kernel(work)
        engine.run()
        assert got == []
        assert (b.udp.header_errors, b.udp.datagrams_in) == (1, 0)


class TestLinkPadding:
    """A frame padded to the Ethernet minimum carries zeros past the
    datagram: the receiver gets the datagram's bytes, not the padding."""

    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_padding_is_not_delivered(self, os_name):
        bed = build_testbed(os_name, "ethernet")
        got = []
        if os_name == "spin":
            @ephemeral
            def handler(m, off, *rest):
                got.append(bytes(m.to_bytes()[off:]))
            bed.stacks[1].udp_manager.bind(Credential("pad"), 6000, handler)
        else:
            def server():
                sock = bed.sockets[1].udp_socket()
                yield from sock.bind(6000)
                data, _addr = yield from sock.recvfrom()
                got.append(data)
            bed.engine.process(server(), name="server")
            bed.engine.run()
        put_frame(bed, udp_datagram(bed.ip(0), bed.ip(1), 5000, 6000, b"ping"))
        udp = bed.stacks[1].udp
        assert got == [b"ping"]
        assert (udp.datagrams_in, udp.checksum_errors, udp.header_errors) \
            == (1, 0, 0)


class TestEthernetFraming:
    """Ethernet behaviour through the full SPIN testbed."""

    def test_frames_carry_correct_headers(self, spin_pair):
        bed = spin_pair
        captured = []
        original = bed.nics[1].frame_on_wire

        def spy(frame):
            captured.append(frame)
            original(frame)
        bed.nics[1].frame_on_wire = spy
        stack = bed.stacks[0]

        def work():
            m = bed.hosts[0].mbufs.from_bytes(b"x" * 30, leading_space=64)
            stack.ip.output(m, bed.ip(1), 17)
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        frame = captured[0]
        header = VIEW(frame.data, ETHERNET_HEADER)
        assert header.type == ETHERTYPE_IP
        assert header.dst.tobytes() == bed.nics[1].address
        assert header.src.tobytes() == bed.nics[0].address


class TestArp:
    def test_cold_cache_resolves_then_sends(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        got = []
        bed.stacks[1].udp.upcall = lambda m, off, *rest: got.append(True)
        stack = bed.stacks[0]

        def work():
            m = bed.hosts[0].mbufs.from_bytes(b"x" * 16, leading_space=64)
            stack.udp.output(m, 5000, bed.ip(1), 6000)
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        # The first packet triggered a request/reply exchange, then flowed.
        assert stack.arp.requests_sent == 1
        assert bed.stacks[1].arp.replies_sent == 1
        assert stack.arp.cache[bed.ip(1)] == bed.nics[1].address

    def test_queued_packet_flushed_on_reply(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        seen = []
        bed.stacks[1].udp.upcall = lambda m, off, *rest: seen.append(
            bytes(m.to_bytes()[off:]))
        stack = bed.stacks[0]

        def work():
            for tag in (b"first", b"second"):
                m = bed.hosts[0].mbufs.from_bytes(tag, leading_space=64)
                stack.udp.output(m, 5000, bed.ip(1), 6000)
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        assert sorted(seen) == [b"first", b"second"]
        # One request covered both queued packets.
        assert stack.arp.requests_sent <= 2

    def test_receiver_learns_sender_from_request(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        stack = bed.stacks[0]

        def work():
            m = bed.hosts[0].mbufs.from_bytes(b"x", leading_space=64)
            stack.udp.output(m, 5000, bed.ip(1), 6000)
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        # Standard ARP behaviour: the target learns the requester.
        assert bed.stacks[1].arp.cache[bed.ip(0)] == bed.nics[0].address

    def test_request_for_other_host_not_answered(self):
        bed = build_testbed("spin", "ethernet", n_hosts=3, warm_arp=False)
        stack = bed.stacks[0]

        def work():
            stack.arp._send_request(bed.ip(2))
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        # Host 1 saw the broadcast but is not the target.
        assert bed.stacks[1].arp.replies_sent == 0
        assert bed.stacks[2].arp.replies_sent == 1

    def test_static_entries(self, spin_pair):
        stack = spin_pair.stacks[0]
        mac = mac_aton("02:00:00:00:00:99")
        stack.arp.add_entry(ip_aton("10.1.0.9"), mac)
        assert stack.arp.cache[ip_aton("10.1.0.9")] == mac
