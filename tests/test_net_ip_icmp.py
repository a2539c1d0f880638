"""Tests for IP (fragmentation, checksums, demux) and ICMP."""

import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.lang import VIEW
from repro.net.checksum import internet_checksum, internet_checksum_reference
from repro.net.headers import IPPROTO_UDP, IP_HEADER, TCP_SYN, ip_aton
from repro.net.ip import _Reassembly

from nethelpers import ip_datagram, make_pair, put_frame, tcp_datagram


def send_udp(stack, payload, dst, sport=5000, dport=6000, checksum=True):
    def work():
        m = stack.host.mbufs.from_bytes(payload, leading_space=64)
        stack.udp.output(m, sport, dst, dport, checksum=checksum)
    stack.run_kernel(work)


def accepts(stack, dst):
    """Whether ``stack``'s IP input takes a datagram to ``dst`` as its
    own (and does not count it not-for-us)."""
    packet = ip_datagram(ip_aton("10.0.0.1"), dst, IPPROTO_UDP, bytes(8))
    before = stack.ip.packets_in, stack.ip.not_for_us
    stack.run_kernel(lambda: stack.ip.input(
        stack.host.mbufs.from_bytes(packet), 0))
    stack.host.engine.run()
    after = stack.ip.packets_in, stack.ip.not_for_us
    assert after[0] + after[1] == before[0] + before[1] + 1
    return after[0] == before[0] + 1


class TestIpBasics:
    def test_datagram_delivered(self):
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(bytes(m.to_bytes()[off:]))
        send_udp(a, b"hello ip", b.my_ip)
        engine.run()
        assert got == [b"hello ip"]

    def test_wrong_destination_dropped(self):
        engine, wire, a, b = make_pair()
        got = []
        b.udp.upcall = lambda *args: got.append(args)

        def work():
            m = a.host.mbufs.from_bytes(b"stray", leading_space=64)
            a.ip.output(m, ip_aton("10.0.0.99"), IPPROTO_UDP)
        a.run_kernel(work)
        # Deliver it to b anyway (mis-switched frame).
        packets = []
        wire.drop_filter = lambda data, hop: packets.append(data) or True
        engine.run()

        def misdeliver():
            chain = b.host.mbufs.from_bytes(packets[0])
            b.ip.input(chain, 0)
        b.run_kernel(misdeliver)
        engine.run()
        assert got == []
        assert b.ip.not_for_us == 1

    def test_header_checksum_verified(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(bytearray(data)) or True
        send_udp(a, b"x", b.my_ip)
        engine.run()
        packet = captured[0]
        packet[8] ^= 0xFF  # corrupt the TTL under the checksum

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        b.run_kernel(misdeliver)
        engine.run()
        assert b.ip.header_errors == 1
        assert b.ip.packets_in == 0

    def test_ttl_stamped(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(data) or False
        send_udp(a, b"x", b.my_ip)
        engine.run()
        view = VIEW(captured[0], IP_HEADER)
        assert view.ttl == 64
        assert view.protocol == IPPROTO_UDP

    def test_idents_increment(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(data) or False
        send_udp(a, b"x", b.my_ip)
        send_udp(a, b"y", b.my_ip)
        engine.run()
        idents = [VIEW(p, IP_HEADER).ident for p in captured]
        assert idents[1] == idents[0] + 1

    def test_broadcast_accepted(self):
        engine, wire, a, b = make_pair()
        assert accepts(b, 0xFFFFFFFF)

    def test_alias_accepted(self):
        engine, wire, a, b = make_pair()
        vip = ip_aton("10.0.0.200")
        assert not accepts(b, vip)
        b.ip.add_alias(vip)
        assert accepts(b, vip)
        b.ip.remove_alias(vip)
        assert not accepts(b, vip)

    def test_multicast_group_membership(self):
        engine, wire, a, b = make_pair()
        group = ip_aton("224.1.2.3")
        b.ip.join_group(group)
        assert accepts(b, group)
        b.ip.leave_group(group)
        assert not accepts(b, group)

    def test_join_non_class_d_rejected(self):
        engine, wire, a, b = make_pair()
        with pytest.raises(ValueError):
            b.ip.join_group(ip_aton("10.0.0.5"))


class TestFragmentation:
    def test_large_datagram_fragmented_and_reassembled(self):
        engine, wire, a, b = make_pair(mtu=600)
        payload = bytes(range(256)) * 8  # 2048 bytes > MTU
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(bytes(m.to_bytes()[off:]))
        send_udp(a, payload, b.my_ip)
        engine.run()
        assert got == [payload]
        assert a.ip.fragments_out >= 4
        assert b.ip.reassembled == 1

    def test_fragment_payloads_are_8_byte_aligned(self):
        engine, wire, a, b = make_pair(mtu=600)
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(data) or False
        send_udp(a, bytes(2000), b.my_ip)
        engine.run()
        offsets = [(VIEW(p, IP_HEADER).frag_off & 0x1FFF) * 8 for p in captured]
        assert offsets == sorted(offsets)
        for p in captured[:-1]:
            assert (len(p) - 20) % 8 == 0

    def test_lost_fragment_stalls_reassembly(self):
        engine, wire, a, b = make_pair(mtu=600)
        counter = {"n": 0}

        def drop_second(data, hop):
            counter["n"] += 1
            return counter["n"] == 2
        wire.drop_filter = drop_second
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(True)
        send_udp(a, bytes(2000), b.my_ip)
        engine.run()
        assert got == []
        assert b.ip.reassembled == 0

    def test_interleaved_reassembly_by_ident(self):
        engine, wire, a, b = make_pair(mtu=600)
        got = []
        b.udp.upcall = lambda m, off, *rest: got.append(bytes(m.to_bytes()[off:]))
        send_udp(a, b"A" * 1500, b.my_ip)
        send_udp(a, b"B" * 1500, b.my_ip)
        engine.run()
        assert sorted(got) == [b"A" * 1500, b"B" * 1500]
        assert b.ip.reassembled == 2


_MF = 0x2000


def _ip_packet(src, dst, total, frag_field, payload, ident=77):
    """An IPv4 packet with a valid header checksum and any total length."""
    header = bytearray(IP_HEADER.size)
    IP_HEADER.pack_into(header, 0, 0x45, 0, total, ident, frag_field, 64,
                        IPPROTO_UDP, 0, src, dst)
    header[10:12] = internet_checksum(header).to_bytes(2, "big")
    return bytes(header) + payload


class TestMalformedFragments:
    """Fragments whose payload the total length cannot place are dropped
    and counted; before they were, an empty one sat in the reassembly at
    the cursor and the fragment that completed the datagram never
    returned (SPIN and UNIX share ip.py)."""

    FRAMES = {
        "empty_non_final": (20, _MF, b""),
        "total_under_the_header": (8, _MF, bytes(16)),
        "total_past_the_bytes_received": (60, _MF, bytes(8)),
    }

    @pytest.mark.parametrize("frame", sorted(FRAMES))
    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_dropped_and_counted(self, os_name, frame):
        bed = build_testbed(os_name, "atm")
        ip = bed.stacks[1].ip
        got = []
        ip.upcall = lambda *args: got.append(args)

        def deliver(packet):
            def work():
                ip.input(bed.hosts[1].mbufs.from_bytes(packet,
                                                       leading_space=0), 0)
            bed.engine.run_process(bed.hosts[1].kernel_path(work))
            bed.engine.run()

        total, frag_field, payload = self.FRAMES[frame]
        deliver(_ip_packet(bed.ip(0), bed.ip(1), total, frag_field, payload))
        assert (ip.header_errors, ip.fragments_in) == (1, 0)
        assert not ip._reassembly
        # The last fragment of the same datagram, at offset 8: the hole at
        # offset 0 keeps it waiting, and the call returns.
        deliver(_ip_packet(bed.ip(0), bed.ip(1), 28, 1, bytes(8)))
        assert (ip.fragments_in, ip.reassembled, got) == (1, 0, [])

    def test_reassembly_never_waits_on_an_empty_part(self):
        state = _Reassembly(0.0)
        results = []
        worker = threading.Thread(daemon=True, target=lambda: results.append(
            (state.add(0, b"", last=False), state.add(8, bytes(8), last=True))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "add() spun on an empty fragment"
        assert results == [(None, None)]


class TestDatagramLimit:
    """RFC 791's total length is 16 bits: no datagram passes 65,535
    bytes, header included, whether sent or reassembled."""

    PAYLOAD = 65_600

    def test_output_refuses_an_oversized_payload(self):
        engine, wire, a, b = make_pair()
        errors = []

        def work():
            m = a.host.mbufs.from_bytes(bytes(self.PAYLOAD), leading_space=64)
            try:
                a.ip.output(m, b.my_ip, IPPROTO_UDP)
            except ValueError as error:
                errors.append(str(error))
        a.run_kernel(work)
        engine.run()
        assert errors == ["IP datagram of 65620 bytes exceeds 65535"]
        assert (a.ip.fragments_out, wire.sent) == (0, [])

    def test_an_oversized_reassembly_is_dropped_and_counted(self):
        """A peer's fragments whose offsets reach past 65,535 bytes."""
        engine, wire, a, b = make_pair()
        got = []
        b.ip.upcall = lambda *args: got.append(args)
        chunk = 1480
        for offset in range(0, self.PAYLOAD, chunk):
            part = bytes(min(chunk, self.PAYLOAD - offset))
            more = 0 if offset + len(part) == self.PAYLOAD else _MF
            packet = _ip_packet(a.my_ip, b.my_ip, IP_HEADER.size + len(part),
                                more | offset // 8, part)
            b.run_kernel(lambda packet=packet: b.ip.input(
                b.host.mbufs.from_bytes(packet, leading_space=0), 0))
        engine.run()
        assert b.ip.fragments_in == -(-self.PAYLOAD // chunk)
        assert (b.ip.reassembled, b.ip.header_errors, got) == (0, 1, [])
        assert not b.ip._reassembly


class TestTotalLength:
    """The IP total length bounds the datagram (BSD ip_input): a packet
    shorter than it is a header error, whatever it carries, and bytes
    past it are trimmed before the transport sees them."""

    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_short_datagram_is_a_header_error(self, os_name):
        bed = build_testbed(os_name, "ethernet")
        datagram = tcp_datagram(bed.ip(0), bed.ip(1), 40000, 9, TCP_SYN,
                                b"data")
        put_frame(bed, datagram[:-2], pad_to=0)
        ip, tcp = bed.stacks[1].ip, bed.stacks[1].tcp
        assert (ip.header_errors, ip.packets_in) == (1, 0)
        assert (tcp.checksum_errors, tcp.segments_in) == (0, 0)

    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_trailing_bytes_are_trimmed(self, os_name):
        bed = build_testbed(os_name, "ethernet")
        datagram = tcp_datagram(bed.ip(0), bed.ip(1), 40000, 9, TCP_SYN,
                                b"data")
        put_frame(bed, datagram + b"\xff" * 6, pad_to=0)
        ip, tcp = bed.stacks[1].ip, bed.stacks[1].tcp
        assert (ip.header_errors, ip.packets_in) == (0, 1)
        assert (tcp.checksum_errors, tcp.segments_in) == (0, 1)


_U8 = st.integers(0, 0xFF)
_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)


class TestHeaderChecksumFromFields:
    """IP stamps and verifies its header checksum by arithmetic on the
    fields it packs and unpacks; both must agree with a pass over the
    header's bytes, for every value of every field."""

    @settings(max_examples=200, deadline=None)
    @given(total=_U16, ident=_U16, frag=_U16, ttl=_U8, protocol=_U8,
           src=_U32, dst=_U32)
    def test_output_stamps_the_reference_checksum(self, total, ident, frag,
                                                  ttl, protocol, src, dst):
        engine, _wire, a, _b = make_pair()
        headers = []

        def work():
            m = a.host.mbufs.from_bytes(b"", leading_space=64)
            packet = a.ip._prepend_header(m, src, dst, protocol, ident, ttl,
                                          frag_field=frag, total_length=total)
            headers.append(bytes(packet._storage[packet.off:packet.off + 20]))
        a.run_kernel(work)
        engine.run()
        header = headers[0]
        *fields, cksum, src_out, dst_out = IP_HEADER.unpack_from(header, 0)
        assert (*fields, src_out, dst_out) == (
            0x45, 0, total, ident, frag, ttl, protocol, src, dst)
        zeroed = header[:10] + b"\0\0" + header[12:]
        assert cksum == internet_checksum_reference(zeroed)

    @settings(max_examples=300, deadline=None)
    @given(tos=_U8, total=st.integers(20, 0xFFFF), ident=_U16, frag=_U16,
           ttl=_U8, protocol=_U8, cksum=st.none() | _U16, src=_U32, dst=_U32)
    def test_input_verdict_is_the_byte_checksum(self, tos, total, ident, frag,
                                                ttl, protocol, cksum, src,
                                                dst):
        # ``cksum=None`` stamps the correct value; any other is a field
        # that may or may not check.  A datagram not for b stops at
        # ``not_for_us`` once its header is accepted.
        engine, _wire, _a, b = make_pair()
        assume(dst not in (b.my_ip, 0xFFFFFFFF))
        header = bytearray(20)
        IP_HEADER.pack_into(header, 0, 0x45, tos, total, ident, frag, ttl,
                            protocol, 0, src, dst)
        if cksum is None:
            cksum = internet_checksum_reference(header)
        header[10:12] = cksum.to_bytes(2, "big")
        datagram = bytes(header) + bytes(total - 20)
        b.run_kernel(lambda: b.ip.input(b.host.mbufs.from_bytes(datagram), 0))
        engine.run()
        valid = internet_checksum(header) == 0
        assert (b.ip.not_for_us, b.ip.header_errors) == (
            (1, 0) if valid else (0, 1))


class TestForwardRestamp:
    """A router restamps a forwarded header incrementally (RFC 1624,
    eqn. 3); the result must be the checksum a pass over the decremented
    header's bytes gives, including where the old checksum sits next to
    0x0000 or 0xFFFF (either form of zero arrives valid)."""

    class _Adapter:
        mtu = 1500

        def __init__(self):
            self.sent = []

        def send(self, m, next_hop):
            self.sent.append(m.to_bytes())

    @settings(max_examples=300, deadline=None)
    @given(tos=_U8, total=st.integers(20, 1500), ident=_U16, frag=_U16,
           ttl=st.integers(2, 0xFF), protocol=_U8, src=_U32, dst=_U32,
           target=st.none() | st.sampled_from(
               [0x0000, 0x0001, 0x0002, 0x00FF, 0x0100, 0xFEFF, 0xFF00,
                0xFFFD, 0xFFFE, 0xFFFF]),
           negative_zero=st.booleans())
    def test_restamp_is_the_reference_checksum(self, tos, total, ident, frag,
                                               ttl, protocol, src, dst,
                                               target, negative_zero):
        from repro.net.ip import IpProto
        from repro.sim import Engine
        from repro.spin import SpinKernel
        kernel = SpinKernel(Engine(), "router")
        adapter = self._Adapter()
        ip = IpProto(kernel, ip_aton("10.9.0.1"), adapter)
        ip.forwarding = True
        assume(dst not in (ip.my_ip, 0xFFFFFFFF))
        header = bytearray(20)
        IP_HEADER.pack_into(header, 0, 0x45, tos, total, 0, frag, ttl,
                            protocol, 0, src, dst)
        if target is not None:
            # The ident that lands the header's checksum on ``target``.
            ident = (internet_checksum_reference(header) - target) % 0xFFFF
        header[4:6] = ident.to_bytes(2, "big")
        cksum = internet_checksum_reference(header)
        if negative_zero and cksum == 0:
            cksum = 0xFFFF
        header[10:12] = cksum.to_bytes(2, "big")
        payload = bytes(range(256)) * 6
        datagram = bytes(header) + payload[:total - 20]
        kernel.engine.run_process(kernel.kernel_path(
            lambda: ip.input(kernel.mbufs.from_bytes(datagram), 0)))
        assert (ip.forwarded, ip.header_errors) == (1, 0)
        [out] = adapter.sent
        expected = bytearray(header)
        expected[8] = ttl - 1
        expected[10:12] = b"\0\0"
        assert out[:10] + out[12:] == bytes(expected[:10] + expected[12:]) + \
            payload[:total - 20]
        assert int.from_bytes(out[10:12], "big") == \
            internet_checksum_reference(expected)


class TestIcmp:
    def test_echo_request_reply(self):
        engine, wire, a, b = make_pair()
        replies = []
        a.icmp.on_echo_reply = (
            lambda ident, seq, payload, src: replies.append((ident, seq, payload)))
        a.run_kernel(lambda: a.icmp.send_echo_request(b.my_ip, ident=7, seq=1,
                                                      payload=b"ping!"))
        engine.run()
        assert replies == [(7, 1, b"ping!")]
        assert b.icmp.echo_requests_in == 1
        assert a.icmp.echo_replies_in == 1

    def test_corrupt_icmp_dropped(self):
        engine, wire, a, b = make_pair()
        captured = []
        wire.drop_filter = lambda data, hop: captured.append(bytearray(data)) or True
        a.run_kernel(lambda: a.icmp.send_echo_request(b.my_ip, 1, 1, b"x"))
        engine.run()
        packet = captured[0]
        packet[-1] ^= 0x01  # corrupt ICMP payload under its checksum

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        b.run_kernel(misdeliver)
        engine.run()
        assert b.icmp.echo_requests_in == 0

    def test_unreachable_reporting(self):
        engine, wire, a, b = make_pair()
        seen = []
        a.icmp.on_unreachable = lambda code, quote: seen.append(code)

        def work():
            m = b.host.mbufs.from_bytes(bytes(28))
            b.icmp.send_unreachable(3, m, 0, a.my_ip)
        b.run_kernel(work)
        engine.run()
        assert seen == [3]
        assert b.icmp.unreachables_sent == 1
