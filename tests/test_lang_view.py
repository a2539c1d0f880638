"""Tests for the VIEW operator (paper section 3.2, Figure 2)."""

import pytest

from repro.lang import (
    Layout,
    ReadOnlyViolation,
    UINT16,
    UINT32,
    UINT8,
    VIEW,
    ViewError,
)
from repro.net.headers import ARP_HEADER, ETHERNET_HEADER
from repro.spin import Mbuf

ETH = ETHERNET_HEADER
SIMPLE = Layout("Simple", [("a", UINT16), ("b", UINT32)])


class TestConstruction:
    def test_requires_layout(self):
        with pytest.raises(ViewError, match="scalar"):
            VIEW(bytearray(10), "Ethernet.T")

    def test_buffer_too_small_rejected(self):
        with pytest.raises(ViewError, match="too small"):
            VIEW(bytearray(5), SIMPLE)

    def test_buffer_too_small_at_offset(self):
        with pytest.raises(ViewError):
            VIEW(bytearray(6), SIMPLE, offset=1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ViewError):
            VIEW(bytearray(10), SIMPLE, offset=-1)

    def test_non_buffer_rejected(self):
        with pytest.raises(ViewError):
            VIEW([1, 2, 3], SIMPLE)

    def test_exact_size_accepted(self):
        view = VIEW(bytearray(6), SIMPLE)
        assert view.a == 0


class TestReads:
    def test_scalar_fields_decode(self):
        buf = bytearray(b"\x12\x34" + b"\xde\xad\xbe\xef")
        view = VIEW(buf, SIMPLE)
        assert view.a == 0x1234
        assert view.b == 0xDEADBEEF

    def test_offset_reads(self):
        buf = bytearray(b"\x00" * 3 + b"\x12\x34" + b"\x00" * 4)
        view = VIEW(buf, SIMPLE, offset=3)
        assert view.a == 0x1234

    def test_figure2_ethernet_idiom(self):
        """The exact guard idiom from Figure 2 of the paper."""
        frame = bytearray(64)
        frame[12:14] = b"\x08\x00"  # ETHERTYPE_IP
        header = VIEW(frame, ETH)
        assert header.type == 0x0800

    def test_array_field_indexing(self):
        frame = bytearray(range(20))
        header = VIEW(frame, ETH)
        assert list(header.dst) == [0, 1, 2, 3, 4, 5]
        assert header.src[0] == 6
        assert header.src[-1] == 11

    def test_array_out_of_range(self):
        header = VIEW(bytearray(20), ETH)
        with pytest.raises(IndexError):
            header.dst[6]

    def test_array_equality(self):
        frame = bytearray(20)
        frame[0:6] = b"\xff" * 6
        header = VIEW(frame, ETH)
        assert header.dst == b"\xff" * 6
        assert header.dst.tobytes() == b"\xff" * 6

    def test_array_equality_with_memoryview(self):
        buf = bytearray(range(28))
        view = VIEW(buf, ARP_HEADER)
        assert view.sha == memoryview(buf)[8:14]
        assert view.sha != memoryview(buf)[9:15]

    def test_array_equals_a_frozen_slice(self):
        m = Mbuf.from_bytes(bytes(range(28))).freeze()
        view = VIEW(m.data, ARP_HEADER)
        assert view.sha == m.data[8:14]
        assert view.sha != m.data[9:15]

    def test_unknown_field_rejected(self):
        view = VIEW(bytearray(6), SIMPLE)
        with pytest.raises(AttributeError, match="has no field"):
            _ = view.missing

    def test_nested_layout_access(self):
        inner = Layout("Inner", [("x", UINT16)])
        outer = Layout("Outer", [("pad", UINT8), ("body", inner)])
        buf = bytearray(b"\x00\xab\xcd")
        assert VIEW(buf, outer).body.x == 0xABCD

    def test_tobytes(self):
        buf = bytearray(b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert VIEW(buf, SIMPLE).tobytes() == bytes(buf[:6])


class TestZeroCopyAliasing:
    def test_buffer_writes_visible_through_view(self):
        buf = bytearray(6)
        view = VIEW(buf, SIMPLE)
        buf[0:2] = b"\x11\x22"
        assert view.a == 0x1122

    def test_view_writes_visible_in_buffer(self):
        buf = bytearray(6)
        view = VIEW(buf, SIMPLE)
        view.b = 0x01020304
        assert bytes(buf[2:6]) == b"\x01\x02\x03\x04"

    def test_array_writes_alias(self):
        frame = bytearray(20)
        header = VIEW(frame, ETH)
        header.dst[2] = 0x7F
        assert frame[2] == 0x7F

    def test_whole_array_assignment(self):
        frame = bytearray(20)
        header = VIEW(frame, ETH)
        header.src = b"\x01\x02\x03\x04\x05\x06"
        assert bytes(frame[6:12]) == b"\x01\x02\x03\x04\x05\x06"

    def test_wrong_size_array_assignment_rejected(self):
        header = VIEW(bytearray(20), ETH)
        with pytest.raises(ViewError):
            header.src = b"\x01\x02"


class TestReadOnlyViews:
    def test_view_over_bytes_rejects_writes(self):
        view = VIEW(b"\x00" * 6, SIMPLE)
        with pytest.raises(ReadOnlyViolation):
            view.a = 1

    def test_view_over_readonly_buffer_rejects_writes(self):
        buf = memoryview(bytearray(6)).toreadonly()
        view = VIEW(buf, SIMPLE)
        assert view.a == 0
        with pytest.raises(ReadOnlyViolation, match="paper sec. 3.4"):
            view.a = 1

    def test_readonly_array_element_write_rejected(self):
        view = VIEW(memoryview(bytearray(20)).toreadonly(), ETH)
        with pytest.raises(ReadOnlyViolation):
            view.dst[0] = 1

    def test_readonly_view_reads_fine(self):
        buf = bytearray(20)
        buf[12:14] = b"\x08\x06"
        view = VIEW(memoryview(buf).toreadonly(), ETH)
        assert view.type == 0x0806

    def test_view_over_frozen_packet_rejects_writes(self):
        m = Mbuf.from_bytes(bytes(20)).freeze()
        view = VIEW(m.data, ETH)
        with pytest.raises(ReadOnlyViolation):
            view.type = 0x0800
        with pytest.raises(ReadOnlyViolation):
            view.dst[0] = 1
        assert m.to_bytes() == bytes(20)
