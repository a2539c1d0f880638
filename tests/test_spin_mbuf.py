"""Tests for Berkeley mbufs."""

import pytest

from repro.lang import ReadOnlyBuffer, ReadOnlyViolation
from repro.spin import MCLBYTES, MLEN, Mbuf, MbufError
from repro.spin.kernel import SpinKernel


class TestConstruction:
    def test_get_cluster(self):
        # One byte more than a small mbuf holds: still one link, and a
        # link never holds more than a cluster.
        m = Mbuf.from_bytes(bytes(MLEN + 1), leading_space=0)
        assert m.next is None
        assert m.len == MLEN + 1 <= MCLBYTES
        assert all(link.len <= MCLBYTES
                   for link in Mbuf.from_bytes(bytes(3 * MCLBYTES)).chain())

    def test_leading_space_bounds(self):
        with pytest.raises(MbufError):
            Mbuf.from_bytes(b"x", leading_space=MCLBYTES)
        assert Mbuf.from_bytes(b"x", leading_space=MCLBYTES - 1).off \
            == MCLBYTES - 1

    def test_from_bytes_small(self):
        m = Mbuf.from_bytes(b"hello", leading_space=8)
        assert m.to_bytes() == b"hello"
        assert m.pkthdr.length == 5

    def test_from_bytes_spans_clusters(self):
        data = bytes(range(256)) * 20  # 5120 bytes > MCLBYTES
        m = Mbuf.from_bytes(data)
        assert m.to_bytes() == data
        assert sum(1 for _ in m.chain()) >= 3
        assert m.pkthdr.length == len(data)

    def test_from_bytes_records_rcvif(self):
        m = Mbuf.from_bytes(b"x", rcvif="nic0")
        assert m.pkthdr.rcvif == "nic0"

    def test_length_sums_chain(self):
        m = Mbuf.from_bytes(bytes(5000))
        assert m.length() == 5000


class TestPrepend:
    def test_prepend_uses_headroom(self):
        m = Mbuf.from_bytes(b"payload", leading_space=32)
        chain_before = sum(1 for _ in m.chain())
        m2 = m.prepend(b"HDR")
        assert m2 is m  # in place
        assert sum(1 for _ in m2.chain()) == chain_before
        assert m2.to_bytes() == b"HDRpayload"

    def test_prepend_without_headroom_allocates(self):
        m = Mbuf.from_bytes(b"payload", leading_space=0)
        m2 = m.prepend(b"HDR")
        assert m2 is not m
        assert m2.to_bytes() == b"HDRpayload"
        assert m2.pkthdr is not None and m2.pkthdr.length == 10
        assert m.pkthdr is None  # header moved to the new head

    def test_prepend_longer_than_a_cluster_rejected(self):
        # A link holds at most MCLBYTES; the pool charges per link.
        m = Mbuf.from_bytes(b"payload", leading_space=0)
        with pytest.raises(MbufError):
            m.prepend(bytes(MCLBYTES + 1))
        assert m.to_bytes() == b"payload" and m.pkthdr.length == 7
        head = m.prepend(bytes(MCLBYTES))
        assert head.len == MCLBYTES and head.next is m

    def test_stacked_prepends_model_protocol_stack(self):
        m = Mbuf.from_bytes(b"data", leading_space=64)
        m = m.prepend(b"UDP8----")
        m = m.prepend(b"IP-HEADER-IP-HEADER-")
        m = m.prepend(b"ETHERNET-H31410")
        assert m.to_bytes().endswith(b"data")
        assert m.pkthdr.length == 4 + 8 + 20 + 15


class TestReadOnly:
    def test_freeze_marks_whole_chain(self):
        m = Mbuf.from_bytes(bytes(5000))
        m.freeze()
        assert all(link.frozen for link in m.chain())

    def test_frozen_data_is_readonly_buffer(self):
        m = Mbuf.from_bytes(b"abc").freeze()
        assert isinstance(m.data, ReadOnlyBuffer)
        with pytest.raises(ReadOnlyViolation):
            m.data[0] = 1

    @pytest.mark.parametrize("mutation", [
        lambda m: m.prepend(b"x"),
        lambda m: m.writable_data(),
    ])
    def test_frozen_mutations_rejected(self, mutation):
        m = Mbuf.from_bytes(b"abcdef").freeze()
        with pytest.raises(ReadOnlyViolation):
            mutation(m)

    def test_copy_packet_of_frozen_is_writable(self):
        m = Mbuf.from_bytes(b"abc").freeze()
        clone = m.copy_packet()
        clone.writable_data()[0] = ord("X")
        assert clone.to_bytes() == b"Xbc"
        assert m.to_bytes() == b"abc"

    def test_to_bytes_works_frozen(self):
        m = Mbuf.from_bytes(b"abc").freeze()
        assert m.to_bytes() == b"abc"


class TestPool:
    def test_pool_charges_cpu(self, engine):
        kernel = SpinKernel(engine, "h")
        marker = kernel.cpu.begin()
        m = kernel.mbufs.from_bytes(bytes(5000))
        alloc_cost = kernel.cpu.end(marker)
        assert alloc_cost > 0
        assert kernel.mbufs.allocated == sum(1 for _ in m.chain())

    def test_pool_copy_charges_per_byte(self, engine):
        kernel = SpinKernel(engine, "h")
        marker = kernel.cpu.begin()
        m = kernel.mbufs.from_bytes(bytes(1000))
        base = kernel.cpu.end(marker)
        marker = kernel.cpu.begin()
        kernel.mbufs.copy_packet(m)
        copy_cost = kernel.cpu.end(marker)
        assert copy_cost > base  # the copy adds per-byte work

    def test_pool_free_accounts(self, engine):
        kernel = SpinKernel(engine, "h")
        marker = kernel.cpu.begin()
        m = kernel.mbufs.from_bytes(bytes(100))
        kernel.mbufs.free(m)
        kernel.cpu.end(marker)
        assert kernel.mbufs.freed == kernel.mbufs.allocated
