"""Tests for header layouts, address helpers, and the Internet checksum."""

import pytest

from repro.lang import VIEW
from repro.net import (
    ETHERNET_HEADER,
    IP_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    internet_checksum,
    ip_aton,
    ip_ntoa,
    mac_aton,
    verify_checksum,
)
from repro.net.headers import ARP_HEADER, ICMP_HEADER, pseudo_header


class TestHeaderSizes:
    """Wire-format sizes must match the real protocols exactly."""

    @pytest.mark.parametrize("layout,size", [
        (ETHERNET_HEADER, 14),
        (ARP_HEADER, 28),
        (IP_HEADER, 20),
        (ICMP_HEADER, 8),
        (UDP_HEADER, 8),
        (TCP_HEADER, 20),
    ])
    def test_size(self, layout, size):
        assert layout.size == size

    def test_ip_field_offsets(self):
        assert IP_HEADER.offsets["ttl"] == 8
        assert IP_HEADER.offsets["protocol"] == 9
        assert IP_HEADER.offsets["src"] == 12
        assert IP_HEADER.offsets["dst"] == 16

    def test_tcp_field_offsets(self):
        assert TCP_HEADER.offsets["seq"] == 4
        assert TCP_HEADER.offsets["ack"] == 8
        assert TCP_HEADER.offsets["window"] == 14


class TestAddresses:
    def test_ip_roundtrip(self):
        assert ip_ntoa(ip_aton("10.1.2.3")) == "10.1.2.3"

    def test_ip_aton_value(self):
        assert ip_aton("1.2.3.4") == 0x01020304

    def test_ip_aton_rejects_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_aton(bad)

    def test_ip_ntoa_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ip_ntoa(1 << 33)

    def test_mac_roundtrip(self):
        assert mac_aton("08:00:2b:aa:bb:cc") == bytes.fromhex("08002baabbcc")

    def test_mac_aton_rejects_malformed(self):
        with pytest.raises(ValueError):
            mac_aton("08:00:2b")


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_zero_data(self):
        assert internet_checksum(b"\x00" * 10) == 0xFFFF

    def test_odd_length(self):
        assert internet_checksum(b"\x01") == (~0x0100) & 0xFFFF

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_verify_after_stamp(self):
        data = bytearray(20)
        data[0:4] = b"\xde\xad\xbe\xef"
        value = internet_checksum(data)
        data[10:12] = value.to_bytes(2, "big")
        assert verify_checksum(data)

    def test_corruption_detected(self):
        data = bytearray(20)
        data[0:4] = b"\xde\xad\xbe\xef"
        value = internet_checksum(data)
        data[10:12] = value.to_bytes(2, "big")
        data[3] ^= 0x40
        assert not verify_checksum(data)

    def test_carry_folding(self):
        # Many 0xFFFF words force carries around.
        assert internet_checksum(b"\xff\xff" * 100) == 0

    def test_initial_accumulator(self):
        pseudo = pseudo_header(ip_aton("1.2.3.4"), ip_aton("5.6.7.8"), 17, 8)
        whole = internet_checksum(pseudo + bytes(8))
        assert whole == internet_checksum(bytes(8) + pseudo)  # commutative


class TestHeadersAreViewable:
    def test_build_ip_header_via_view(self):
        buf = bytearray(IP_HEADER.size)
        view = VIEW(buf, IP_HEADER)
        view.vhl = 0x45
        view.ttl = 64
        view.protocol = 17
        view.src = ip_aton("10.0.0.1")
        view.dst = ip_aton("10.0.0.2")
        again = VIEW(bytes(buf), IP_HEADER)
        assert again.ttl == 64
        assert ip_ntoa(again.src) == "10.0.0.1"

    def test_tcp_flags_packing(self):
        buf = bytearray(TCP_HEADER.size)
        view = VIEW(buf, TCP_HEADER)
        view.off_flags = (5 << 12) | 0x12  # SYN|ACK, 20-byte header
        assert (view.off_flags >> 12) * 4 == 20
        assert view.off_flags & 0x3F == 0x12
