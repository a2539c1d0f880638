"""Tests for packed record layouts."""

import pytest

from repro.lang import (
    ArrayType,
    INT16,
    INT8,
    Layout,
    LayoutError,
    Scalar,
    UINT16,
    UINT16_LE,
    UINT32,
    UINT8,
)


class TestScalar:
    def test_decode_big_endian(self):
        assert UINT16.decode(b"\x01\x02", 0) == 0x0102

    def test_decode_little_endian(self):
        assert UINT16_LE.decode(b"\x01\x02", 0) == 0x0201

    def test_decode_at_offset(self):
        assert UINT8.decode(b"\x00\x00\x7f", 2) == 0x7F

    def test_encode_roundtrip(self):
        buf = bytearray(4)
        UINT32.encode(buf, 0, 0xDEADBEEF)
        assert UINT32.decode(buf, 0) == 0xDEADBEEF

    def test_signed_decode(self):
        assert INT8.decode(b"\xff", 0) == -1
        assert INT16.decode(b"\x80\x00", 0) == -32768

    def test_signed_encode(self):
        buf = bytearray(2)
        INT16.encode(buf, 0, -2)
        assert bytes(buf) == b"\xff\xfe"

    def test_encode_overflow_rejected(self):
        buf = bytearray(1)
        with pytest.raises(OverflowError):
            UINT8.encode(buf, 0, 256)

    def test_decode_short_buffer_rejected(self):
        with pytest.raises(LayoutError):
            UINT32.decode(b"\x01", 0)

    def test_invalid_size_rejected(self):
        with pytest.raises(LayoutError):
            Scalar("bad", 3)

    def test_invalid_byteorder_rejected(self):
        with pytest.raises(LayoutError):
            Scalar("bad", 2, byteorder="middle")


class TestArrayType:
    def test_size(self):
        assert ArrayType(UINT8, 6).size == 6
        assert ArrayType(UINT16, 3).size == 6

    def test_requires_scalar_element(self):
        layout = Layout("Inner", [("x", UINT8)])
        with pytest.raises(LayoutError):
            ArrayType(layout, 2)

    def test_requires_positive_length(self):
        with pytest.raises(LayoutError):
            ArrayType(UINT8, 0)


class TestLayout:
    def test_offsets_accumulate(self):
        layout = Layout("T", [("a", UINT8), ("b", UINT16), ("c", UINT32)])
        assert layout.offsets == {"a": 0, "b": 1, "c": 3}
        assert layout.size == 7

    def test_field_names_in_order(self):
        layout = Layout("T", [("z", UINT8), ("a", UINT8)])
        assert layout.field_names() == ["z", "a"]

    def test_duplicate_field_rejected(self):
        with pytest.raises(LayoutError):
            Layout("T", [("a", UINT8), ("a", UINT16)])

    def test_empty_layout_rejected(self):
        with pytest.raises(LayoutError):
            Layout("T", [])

    def test_nested_layout_sizes(self):
        inner = Layout("Inner", [("x", UINT16), ("y", UINT16)])
        outer = Layout("Outer", [("head", UINT8), ("body", inner)])
        assert outer.size == 5
        assert outer.offsets["body"] == 1

    def test_non_scalar_aggregate_rejected(self):
        """The paper restricts VIEW targets to scalar aggregates."""
        with pytest.raises(LayoutError, match="paper sec. 3.2"):
            Layout("T", [("bad", "not a type")])
