"""Tests for Berkeley mbufs."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import ReadOnlyBuffer, ReadOnlyViolation
from repro.net.checksum import internet_checksum_reference
from repro.net.headers import (IPPROTO_TCP, TCP_HEADER, pseudo_header,
                               pseudo_header_sum)
from repro.net.tcp.tcb import ACK, SYN
from repro.sim import Engine
from repro.spin import MCLBYTES, MLEN, Mbuf, MbufError, MbufPool
from repro.spin.kernel import SpinKernel

from nethelpers import make_pair


class ChainMbuf:
    """The reference model: the chain of per-cluster links a BSD
    allocator builds, the representation :class:`Mbuf` replaced.

    Each link is a ``len``-byte window at ``off`` into a store; a packet
    of up to ``MLEN`` bytes (headroom included) is one small link, a
    larger one has a link at every ``MCLBYTES`` boundary of its one
    store, and a push past the headroom prepends a link holding just the
    header.  ``Mbuf.links`` must count these links.
    """

    def __init__(self, storage, off, length):
        self._storage = storage
        self.off = off
        self.len = length
        self.next = None
        self.frozen = False

    @classmethod
    def from_bytes(cls, data, leading_space=64):
        n = len(data)
        if n + leading_space <= MLEN and leading_space < MLEN:
            storage = bytearray(MLEN)
            storage[leading_space:leading_space + n] = data
            return cls(storage, leading_space, n)
        if leading_space >= MCLBYTES:
            raise MbufError("leading space %d exceeds MCLBYTES"
                            % leading_space)
        storage = bytearray(leading_space) + bytes(data)
        end = leading_space + n
        head = tail = cls(storage, leading_space,
                          min(end, MCLBYTES) - leading_space)
        for off in range(MCLBYTES, end, MCLBYTES):
            tail.next = tail = cls(storage, off, min(MCLBYTES, end - off))
        return head

    def chain(self):
        m = self
        while m is not None:
            yield m
            m = m.next

    def to_bytes(self):
        return b"".join(bytes(link._storage[link.off:link.off + link.len])
                        for link in self.chain())

    @property
    def data(self):
        window = memoryview(self._storage)[self.off:self.off + self.len]
        return ReadOnlyBuffer(window.toreadonly()) if self.frozen else window

    def writable_data(self):
        if self.frozen:
            raise ReadOnlyViolation("READONLY")
        return memoryview(self._storage)[self.off:self.off + self.len]

    def freeze(self):
        for link in self.chain():
            link.frozen = True
        return self

    def push(self, n):
        if self.frozen:
            raise ReadOnlyViolation("READONLY")
        if n <= self.off:
            self.off -= n
            self.len += n
            return self
        if n > MCLBYTES:
            raise MbufError("prepend of %d bytes exceeds MCLBYTES" % n)
        head = ChainMbuf(bytearray(n), 0, n)
        head.next = self
        return head

    def prepend(self, data):
        head = self.push(len(data))
        head._storage[head.off:head.off + len(data)] = data
        return head


class ChainPool(MbufPool):
    """The pool as it charged a chain: one ``mbuf_alloc`` per link
    walked, one ``mbuf_free`` per link freed."""

    def _charge_alloc(self, chain):
        count = sum(1 for _ in chain.chain())
        self.host.cpu.charge(count * self.host.costs.mbuf_alloc, "mbuf")
        self.allocated += count
        self.chains += 1
        return chain

    def free(self, chain):
        count = sum(1 for _ in chain.chain())
        self.host.cpu.charge(count * self.host.costs.mbuf_free, "mbuf")
        self.freed += count


class TestConstruction:
    def test_get_cluster(self):
        # One byte more than a small mbuf holds: still one link, and a
        # link never holds more than a cluster.
        m = Mbuf.from_bytes(bytes(MLEN + 1), leading_space=0)
        assert m.links == 1
        assert m.len == MLEN + 1 <= MCLBYTES
        assert Mbuf.from_bytes(bytes(3 * MCLBYTES)).links == 4

    def test_leading_space_bounds(self):
        with pytest.raises(MbufError):
            Mbuf.from_bytes(b"x", leading_space=MCLBYTES)
        assert Mbuf.from_bytes(b"x", leading_space=MCLBYTES - 1).off \
            == MCLBYTES - 1

    def test_from_bytes_small(self):
        m = Mbuf.from_bytes(b"hello", leading_space=8)
        assert m.to_bytes() == b"hello"
        assert (m.length(), m.links) == (5, 1)

    def test_from_bytes_spans_clusters(self):
        data = bytes(range(256)) * 20  # 5120 bytes > MCLBYTES
        m = Mbuf.from_bytes(data)
        assert m.to_bytes() == data
        assert m.links == 3     # 64 + 5120 bytes begin three clusters
        assert m.length() == len(data)

    def test_length_sums_chain(self):
        m = Mbuf.from_bytes(bytes(5000))
        assert m.length() == 5000


class TestPrepend:
    def test_prepend_uses_headroom(self):
        m = Mbuf.from_bytes(b"payload", leading_space=32)
        m2 = m.prepend(b"HDR")
        assert m2 is m  # in place
        assert m2.links == 1
        assert m2.to_bytes() == b"HDRpayload"

    def test_prepend_without_headroom_allocates(self):
        m = Mbuf.from_bytes(b"payload", leading_space=0)
        storage = m._storage
        m2 = m.prepend(b"HDR")
        assert m2 is m and m._storage is not storage
        assert m2.to_bytes() == b"HDRpayload"
        assert (m2.length(), m2.links) == (10, 2)
        assert m.off == 0  # the fresh store has no headroom

    def test_prepend_longer_than_a_cluster_rejected(self):
        # A link holds at most MCLBYTES; the pool charges per link.
        m = Mbuf.from_bytes(b"payload", leading_space=0)
        with pytest.raises(MbufError):
            m.prepend(bytes(MCLBYTES + 1))
        assert m.to_bytes() == b"payload" and m.links == 1
        head = m.prepend(bytes(MCLBYTES))
        assert head is m and (m.len, m.links) == (MCLBYTES + 7, 2)

    def test_stacked_prepends_model_protocol_stack(self):
        m = Mbuf.from_bytes(b"data", leading_space=64)
        m = m.prepend(b"UDP8----")
        m = m.prepend(b"IP-HEADER-IP-HEADER-")
        m = m.prepend(b"ETHERNET-H31410")
        assert m.to_bytes().endswith(b"data")
        assert m.length() == 4 + 8 + 20 + 15 and m.links == 1


class TestPush:
    def test_push_inside_the_headroom(self):
        m = Mbuf.from_bytes(b"payload", leading_space=32)
        storage = m._storage
        head = m.push(8)
        assert head is m and head._storage is storage and head.links == 1
        assert (head.off, head.len, head.length()) == (24, 15, 15)
        head._storage[head.off:head.off + 8] = b"HEADER!!"
        assert head.to_bytes() == b"HEADER!!payload"

    def test_push_past_the_headroom_adds_a_head_link(self):
        m = Mbuf.from_bytes(b"payload", leading_space=4)
        storage = m._storage
        head = m.push(8)
        assert head is m and m.links == 2
        assert m._storage is not storage and len(m._storage) == 15
        assert (m.off, m.len) == (0, 15)
        assert head.to_bytes() == bytes(8) + b"payload"
        # No headroom is left: a further push is one more link.
        assert (m.push(2).links, m.off, m.len) == (3, 0, 17)

    def test_push_on_a_frozen_chain_raises(self):
        m = Mbuf.from_bytes(bytes(5000)).freeze()
        for n in (4, 65):   # into the headroom, and past it
            with pytest.raises(ReadOnlyViolation):
                m.push(n)
        assert (m.off, m.length(), m.links) == (64, 5000, 3)


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
    """A TCP segment packed in place is the packet ``from_bytes(header +
    payload, 64)`` builds: the link count is what the mbuf charge counts."""

    @given(_segment_sizes(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_segment_matches_from_bytes(self, size, syn):
        engine, wire, a, b = make_pair()
        sent = []
        a.ip.output = lambda m, dst, protocol, src=None: sent.append(m)
        tcb = SimpleNamespace(laddr=a.my_ip, lport=40000, raddr=b.my_ip,
                              rport=80, pseudo_sum=pseudo_header_sum(
                                  a.my_ip, b.my_ip, IPPROTO_TCP, 0))
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
        assert (m.off, m.len, m.links) == (ref.off, ref.len, ref.links)
        assert len(m._storage) == len(ref._storage)
        assert (pool.allocated, pool.chains) == (
            reference_pool.allocated, reference_pool.chains)


@st.composite
def _packets(draw):
    """``(leading_space, n)``: the packet's end on either side of
    ``MLEN`` and of each cluster boundary, or anything up to three
    clusters."""
    leading_space = draw(st.one_of(
        st.sampled_from((0, 1, MLEN - 1, MLEN, MCLBYTES - 1)),
        st.integers(min_value=0, max_value=MCLBYTES - 1)))
    edges = [k * size + d - leading_space for size in (MLEN, MCLBYTES)
             for k in (1, 2, 3) for d in (-1, 0, 1)]
    n = draw(st.one_of(st.sampled_from([e for e in edges if e >= 0]),
                       st.integers(min_value=0, max_value=3 * MCLBYTES)))
    return leading_space, n


_steps = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(min_value=1, max_value=80)),
    st.tuples(st.just("prepend"), st.binary(min_size=1, max_size=48)),
    st.tuples(st.just("push"), st.integers(min_value=1,
                                           max_value=MCLBYTES + 1)),
    st.just(("freeze", None))), max_size=6)


def _step(m, op, arg):
    """One drawn step on either representation: the packet after it, and
    the type of the error it raised (None)."""
    try:
        if op == "freeze":
            return m.freeze(), None
        if op == "prepend":
            return m.prepend(arg), None
        m = m.push(arg)     # then a header packed where it lies
        m._storage[m.off:m.off + arg] = bytes(
            (arg + i) & 0xFF for i in range(arg))
        return m, None
    except (MbufError, ReadOnlyViolation) as exc:
        return m, type(exc)


class TestChainTwin:
    """A packet window and the chain it replaced agree on every draw."""

    @given(_packets(), _steps)
    @settings(max_examples=200, deadline=None)
    def test_window_matches_the_chain(self, packet, steps):
        leading_space, n = packet
        engine = Engine()
        pools = (MbufPool(SpinKernel(engine, "window")),
                 ChainPool(SpinKernel(engine, "chain")))
        data = bytes((7 * i + 3) & 0xFF for i in range(n))
        window = Mbuf.from_bytes(data, leading_space)
        chain = ChainMbuf.from_bytes(data, leading_space)
        for op, arg in steps:
            window, raised = _step(window, op, arg)
            chain, chain_raised = _step(chain, op, arg)
            assert raised is chain_raised
            assert window.to_bytes() == chain.to_bytes()
        assert window.to_bytes() == chain.to_bytes()
        assert window.links == sum(1 for _ in chain.chain())
        assert window.off == chain.off
        assert (window.len == window.length()
                == sum(link.len for link in chain.chain()))
        assert window.frozen == chain.frozen
        for m in (window, chain):
            if m.frozen:
                with pytest.raises(ReadOnlyViolation):
                    m.writable_data()
                with pytest.raises(ReadOnlyViolation):
                    m.data[0:0] = b""
        # The pool books the same links for both, as allocation and free.
        for pool, m in zip(pools, (window, chain)):
            marker = pool.host.cpu.begin()
            pool._charge_alloc(m)
            pool.free(m)
            pool.host.cpu.end(marker)
        window_pool, chain_pool = pools
        assert ((window_pool.allocated, window_pool.chains, window_pool.freed)
                == (chain_pool.allocated, chain_pool.chains, chain_pool.freed))
        assert (window_pool.host.cpu.category_times["mbuf"]
                == chain_pool.host.cpu.category_times["mbuf"])


class TestReadOnly:
    def test_freeze_marks_whole_chain(self):
        m = Mbuf.from_bytes(bytes(5000))
        assert m.freeze() is m and m.frozen
        assert m.freeze().frozen    # idempotent

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
        assert kernel.mbufs.allocated == m.links == 3

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
