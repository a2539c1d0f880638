"""Tests for READONLY packets (paper section 3.4, Figure 4).

A frozen packet's ``data`` is its window made read-only by the
interpreter (``memoryview.toreadonly()``): every read a ``bytes`` object
supports works, and a write raises ``TypeError``.
"""

import pytest

from repro.spin import Mbuf


def frozen(payload):
    return Mbuf.from_bytes(payload).freeze()


class TestReads:
    def test_length(self):
        assert len(frozen(b"abcdef").data) == 6

    def test_indexing(self):
        data = frozen(b"abc").data
        assert data[0] == ord("a")
        assert data[-1] == ord("c")

    def test_slicing_returns_a_readonly_window(self):
        m = frozen(b"abcdef")
        part = m.data[1:3]
        assert part == b"bc"
        assert isinstance(part, memoryview) and part.readonly
        with pytest.raises(TypeError):
            part[0] = ord("X")
        assert m.to_bytes() == b"abcdef"

    def test_iteration(self):
        assert list(frozen(b"ab").data) == [ord("a"), ord("b")]

    def test_equality_with_bytes(self):
        assert frozen(b"xy").data == b"xy"
        assert frozen(b"xy").data == bytearray(b"xy")
        assert frozen(b"xy").data == frozen(b"xy").data
        assert frozen(b"xy").data != b"yz"

    def test_bytes_conversion(self):
        assert bytes(frozen(bytearray(b"ab")).data) == b"ab"

    def test_hash_takes_bytes(self):
        """The window over a bytearray store is unhashable; a site that
        hashes or keys a dict with frozen data takes ``bytes(...)``."""
        data = frozen(b"abcd").data
        with pytest.raises(TypeError):
            hash(data[0:2])
        seen = {bytes(data[0:2]): 1}
        assert seen[b"ab"] == 1
        assert hash(bytes(data)) == hash(b"abcd")

    def test_wraps_memoryview(self):
        """``data`` is one window on the packet's own store: no copy."""
        m = frozen(b"ab")
        data = m.data
        assert isinstance(data, memoryview) and data.readonly
        assert data.obj is m._storage
        m._storage[m.off] = ord("z")
        assert data[0] == ord("z")

    def test_idempotent(self):
        m = frozen(b"ab")
        assert m.freeze() is m and m.frozen
        assert m.data.readonly and m.data == b"ab"


class TestFigure4:
    """The BadPacketRecv / GoodPacketRecv pair from the paper."""

    def test_bad_packet_recv_rejected(self):
        """BadPacketRecv overwrites the packet: 'rejected by compiler'."""
        m = Mbuf.from_bytes(b"\x01" * 64).freeze()
        m_data = m.data
        with pytest.raises(TypeError):
            for i in range(len(m_data)):
                m_data[i] = 0
        assert m.to_bytes() == b"\x01" * 64

    def test_good_packet_recv_copies_first(self):
        """GoodPacketRecv copies, then overwrites the copy: legal."""
        m = Mbuf.from_bytes(b"\x01" * 64).freeze()
        p = bytearray(m.data)
        for i in range(len(p)):
            p[i] = 0
        assert p == bytearray(64)
        assert m.to_bytes() == b"\x01" * 64  # the original is untouched
