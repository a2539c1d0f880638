"""Tests for Berkeley mbufs."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import ReadOnlyBuffer, ReadOnlyViolation
from repro.net.checksum import internet_checksum_reference
from repro.net.headers import IPPROTO_TCP, TCP_HEADER, pseudo_header
from repro.net.tcp.tcb import ACK, SYN
from repro.spin import MCLBYTES, MLEN, Mbuf, MbufError, MbufPool
from repro.spin.kernel import SpinKernel

from nethelpers import make_pair


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


class TestPush:
    def test_push_inside_the_headroom(self):
        m = Mbuf.from_bytes(b"payload", leading_space=32)
        storage = m._storage
        head = m.push(8)
        assert head is m and head._storage is storage and head.next is None
        assert (head.off, head.len, head.pkthdr.length) == (24, 15, 15)
        head._storage[head.off:head.off + 8] = b"HEADER!!"
        assert head.to_bytes() == b"HEADER!!payload"

    def test_push_past_the_headroom_adds_a_head_link(self):
        m = Mbuf.from_bytes(b"payload", leading_space=4)
        head = m.push(8)
        assert head is not m and head.next is m
        assert head._storage is not m._storage and len(head._storage) == 8
        assert (head.off, head.len, m.off) == (0, 8, 4)
        assert head.pkthdr.length == 15 and m.pkthdr is None
        assert head.to_bytes() == bytes(8) + b"payload"

    def test_push_on_a_frozen_chain_raises(self):
        m = Mbuf.from_bytes(bytes(5000)).freeze()
        for link in m.chain():
            with pytest.raises(ReadOnlyViolation):
                link.push(4)
        assert (m.off, m.pkthdr.length) == (64, 5000)


def _segment_sizes():
    # Payloads that put header + payload + 64 bytes of headroom on either
    # side of MLEN and of each cluster boundary, with and without the
    # 4-byte MSS option, plus anything up to three clusters.
    edges = sorted({max(0, k * size - 64 - header_len + d)
                    for size in (MLEN, MCLBYTES) for k in (1, 2, 3)
                    for header_len in (20, 24) for d in (-1, 0, 1)})
    return st.one_of(st.sampled_from(edges),
                     st.integers(min_value=0, max_value=3 * MCLBYTES))


class TestSegmentLayout:
    """A TCP segment packed in place is the chain ``from_bytes(header +
    payload, 64)`` builds: the link count is what the mbuf charge counts."""

    @given(_segment_sizes(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_segment_matches_from_bytes(self, size, syn):
        engine, wire, a, b = make_pair()
        sent = []
        a.ip.output = lambda m, dst, protocol, src=None: sent.append(m)
        tcb = SimpleNamespace(laddr=a.my_ip, lport=40000, raddr=b.my_ip,
                              rport=80)
        payload = bytes((7 * i + 1) & 0xFF for i in range(size))
        flags = SYN if syn else ACK
        pool = a.host.mbufs
        marker = a.host.cpu.begin()
        a.tcp.send_segment(tcb, 1000, 2000, flags, 70000, payload)
        a.host.cpu.end(marker)
        (m,) = sent

        # The segment's bytes, built apart and summed by the oracle.
        options = (bytes([2, 4]) + a.tcp.default_mss.to_bytes(2, "big")
                   if syn else b"")
        header = bytearray(20 + len(options))
        TCP_HEADER.pack_into(header, 0, 40000, 80, 1000, 2000,
                             ((len(header) // 4) << 12) | flags, 0xFFFF, 0, 0)
        header[20:] = options
        header[16:18] = internet_checksum_reference(
            pseudo_header(a.my_ip, b.my_ip, IPPROTO_TCP,
                          len(header) + size)
            + bytes(header) + payload).to_bytes(2, "big")
        reference_pool = MbufPool(a.host)
        marker = a.host.cpu.begin()
        ref = reference_pool.from_bytes(bytes(header) + payload,
                                        leading_space=64)
        a.host.cpu.end(marker)

        assert m.to_bytes() == bytes(header) + payload
        assert ([(link.off, link.len, link._storage is m._storage)
                 for link in m.chain()]
                == [(link.off, link.len, link._storage is ref._storage)
                    for link in ref.chain()])
        assert len(m._storage) == len(ref._storage)
        assert m.pkthdr.length == ref.pkthdr.length
        assert (pool.allocated, pool.chains) == (
            reference_pool.allocated, reference_pool.chains)


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
        lambda m: m.push(1),
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
