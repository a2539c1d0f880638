"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import (VIEW, ArrayType, Layout, ReadOnlyViolation, UINT16,
                        UINT32, UINT8)
from repro.net.http import build_request, build_response, parse_request, parse_response
from repro.net.checksum import internet_checksum
from repro.net.headers import ip_aton, ip_ntoa
from repro.net.tcp.tcb import seq_add, seq_lt, seq_sub
from repro.sim import Engine
from repro.spin import MCLBYTES, MLEN, Mbuf

from test_engine_diet import Resource

payloads = st.binary(min_size=0, max_size=6000)
small_payloads = st.binary(min_size=1, max_size=1400)
seqnums = st.integers(min_value=0, max_value=(1 << 32) - 1)
packet_sizes = st.integers(min_value=0, max_value=20_000)
headrooms = st.integers(min_value=0, max_value=MCLBYTES - 1)

# 251 is prime: the pattern never lines up with a cluster boundary, so a
# link cut in the wrong place shows in the bytes.
_PATTERN = bytes(range(251))


def patterned(n):
    return (_PATTERN * (n // len(_PATTERN) + 1))[:n]


def reference_chain_shape(n, leading_space):
    """``(cluster, off, len)`` of every link, by the per-cluster allocator.

    A test asset: the loop ``Mbuf.from_bytes`` ran when each link owned a
    cluster.  The link count is an input to the simulated mbuf charge, so
    it is pinned here independently of the arithmetic that now produces
    ``Mbuf.links``.
    """
    if n + leading_space <= MLEN and leading_space < MLEN:
        return [(0, leading_space, n)]
    shape = []
    remaining = n
    first = True
    while True:
        off = leading_space if first else 0
        take = min(MCLBYTES - off, remaining)
        shape.append((len(shape), off, take))
        remaining -= take
        first = False
        if remaining == 0:
            return shape


class TestChecksumProperties:
    @given(payloads)
    def test_verification_roundtrip(self, data):
        """Stamping the checksum anywhere makes the whole sum verify."""
        buf = bytearray(data) + bytearray(2)
        value = internet_checksum(bytes(buf))
        buf[-2:] = value.to_bytes(2, "big")
        # Only even-length buffers verify exactly (odd padding shifts the
        # words); normalize by padding like real protocols do.
        if len(buf) % 2 == 0:
            assert internet_checksum(bytes(buf)) == 0

    @given(payloads)
    def test_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(small_payloads, st.integers(min_value=0, max_value=1399))
    def test_single_bit_flip_detected(self, data, position):
        position %= len(data)
        buf = bytearray(data)
        original = internet_checksum(bytes(buf))
        buf[position] ^= 0x01
        # A one-bit flip always changes the one's-complement sum.
        assert internet_checksum(bytes(buf)) != original


class TestAddressProperties:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_ip_roundtrip(self, value):
        assert ip_aton(ip_ntoa(value)) == value


class TestSequenceProperties:
    @given(seqnums, st.integers(min_value=0, max_value=1 << 20))
    def test_add_then_sub(self, base, delta):
        assert seq_sub(seq_add(base, delta), base) == delta

    @given(seqnums, st.integers(min_value=1, max_value=1 << 20))
    def test_lt_after_add(self, base, delta):
        assert seq_lt(base, seq_add(base, delta))
        assert not seq_lt(seq_add(base, delta), base)

    @given(seqnums)
    def test_irreflexive(self, value):
        assert not seq_lt(value, value)


class TestMbufProperties:
    @given(payloads)
    def test_from_bytes_roundtrip(self, data):
        if not data:
            return
        m = Mbuf.from_bytes(data)
        assert m.to_bytes() == data
        assert m.length() == len(data)
        assert m.links == len(reference_chain_shape(len(data), 64))

    @given(small_payloads, st.binary(min_size=1, max_size=64))
    def test_prepend_roundtrip(self, payload, header):
        m = Mbuf.from_bytes(payload, leading_space=32)
        m = m.prepend(header)
        assert m.to_bytes() == header + payload
        assert m.length() == len(header) + len(payload)

    @given(small_payloads)
    def test_copy_packet_is_independent(self, data):
        m = Mbuf.from_bytes(data)
        clone = m.copy_packet()
        view = clone.writable_data()
        view[0] = (view[0] + 1) % 256
        assert m.to_bytes() == data


class TestMbufChainShape:
    """A packet is one window: the link count it carries is the chain the
    per-cluster allocator built."""

    @given(packet_sizes, headrooms)
    def test_links_match_per_cluster_allocator(self, n, leading_space):
        m = Mbuf.from_bytes(patterned(n), leading_space=leading_space)
        shape = reference_chain_shape(n, leading_space)
        assert m.links == len(shape)
        if n + leading_space <= MLEN:
            assert m.links == 1
        else:
            assert m.links == -(-(leading_space + n) // MCLBYTES)
        assert (m.off, m.len) == (leading_space, sum(s[2] for s in shape))

    @given(packet_sizes, headrooms,
           st.lists(st.binary(min_size=1, max_size=48), max_size=5))
    def test_to_bytes_through_prepends(self, n, leading_space, headers):
        expected = patterned(n)
        m = Mbuf.from_bytes(expected, leading_space=leading_space)
        assert m.to_bytes() == expected
        # Some of these fit the headroom and some run out of it.
        for header in headers + [bytes(m.off + 1)]:
            count = m.links
            fits = len(header) <= m.off
            m = m.prepend(header)
            expected = header + expected
            assert m.links == count + (0 if fits else 1)
            assert m.to_bytes() == expected
            assert m.len == m.length() == len(expected)
        # The last prepend ran out of headroom: a fresh store, no headroom.
        assert m.off == 0 and len(m._storage) == len(expected)

    @given(st.integers(min_value=1, max_value=20_000), headrooms, st.data())
    def test_from_bytes_copies_and_links_write_through(self, n, leading_space,
                                                       data):
        source = bytearray(patterned(n))
        m = Mbuf.from_bytes(source, leading_space=leading_space)
        source[:] = bytes(n)
        assert m.to_bytes() == patterned(n)
        position = data.draw(st.integers(min_value=0, max_value=n - 1))
        m.writable_data()[position] ^= 0xFF
        expected = bytearray(patterned(n))
        expected[position] ^= 0xFF
        assert m.to_bytes() == bytes(expected)

    @given(packet_sizes, headrooms)
    def test_freeze_reaches_every_link(self, n, leading_space):
        m = Mbuf.from_bytes(patterned(n), leading_space=leading_space)
        m = m.prepend(bytes(m.off + 1))     # past the headroom: a fresh store
        m.freeze()
        assert m.frozen
        with pytest.raises(ReadOnlyViolation):
            m.writable_data()
        with pytest.raises(ReadOnlyViolation):
            m.prepend(b"x")
        with pytest.raises(TypeError):
            m.data[0] ^= 0xFF
        assert m.to_bytes() == bytes(leading_space + 1) + patterned(n)


class TestViewProperties:
    LAYOUT = Layout("P", [("a", UINT8), ("b", UINT16), ("c", UINT32),
                          ("d", ArrayType(UINT8, 4))])

    @given(st.integers(0, 255), st.integers(0, 0xFFFF),
           st.integers(0, 0xFFFFFFFF), st.binary(min_size=4, max_size=4))
    def test_encode_decode_roundtrip(self, a, b, c, d):
        buf = bytearray(self.LAYOUT.size)
        view = VIEW(buf, self.LAYOUT)
        view.a, view.b, view.c, view.d = a, b, c, d
        again = VIEW(bytes(buf), self.LAYOUT)
        assert (again.a, again.b, again.c, again.d.tobytes()) == (a, b, c, d)

    @given(st.binary(min_size=11, max_size=64),
           st.integers(min_value=0, max_value=32))
    def test_view_never_reads_out_of_window(self, data, offset):
        if offset + self.LAYOUT.size > len(data):
            return
        view = VIEW(data, self.LAYOUT, offset=offset)
        assert view.tobytes() == data[offset:offset + self.LAYOUT.size]


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_events_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.timeout(delay).callbacks.append(
                lambda evt, d=delay: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert engine.now == max(delays)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=20))
    @settings(max_examples=30)
    def test_resource_conservation(self, priorities):
        """Grants never exceed capacity; everyone is eventually served
        (the reference model the engine-diet oracles stand on)."""
        engine = Engine()
        resource = Resource(engine, capacity=2)
        served = []

        def worker(priority):
            request = resource.request(priority)
            yield request
            assert resource.in_use <= resource.capacity
            yield engine.timeout(1.0)
            request.release()
            served.append(priority)
        for priority in priorities:
            engine.process(worker(priority))
        engine.run()
        assert sorted(served) == sorted(priorities)


class TestStackProperties:
    @given(st.binary(min_size=1, max_size=3000), st.integers(600, 1500))
    @settings(max_examples=20, deadline=None)
    def test_udp_payload_integrity_any_size_and_mtu(self, payload, mtu):
        """Whatever the payload and MTU, UDP delivers exactly the bytes
        (through fragmentation when needed)."""
        from nethelpers import make_pair
        engine, wire, a, b = make_pair(mtu=mtu)
        got = []
        b.udp.upcall = (lambda m, off, *rest:
                        got.append(bytes(m.to_bytes()[off:])))

        def work():
            m = a.host.mbufs.from_bytes(payload, leading_space=64)
            a.udp.output(m, 5000, b.my_ip, 6000)
        a.run_kernel(work)
        engine.run()
        assert got == [payload]

    @given(st.binary(min_size=1, max_size=20_000))
    @settings(max_examples=10, deadline=None)
    def test_tcp_stream_integrity(self, payload):
        """TCP delivers exactly the bytes, in order, for any payload."""
        from nethelpers import make_pair
        engine, wire, a, b = make_pair()
        got = []

        def on_accept(tcb):
            tcb.on_data = got.append
        b.tcp.listen(9000, on_accept)
        box = {}
        a.run_kernel(lambda: box.setdefault("t", a.tcp.connect(b.my_ip, 9000)))
        engine.run()
        a.run_kernel(lambda: box["t"].send(payload))
        engine.run()
        assert b"".join(got) == payload[:box["t"].snd_buf_limit]


class TestHttpProperties:
    header_names = st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll"),
                               max_codepoint=127),
        min_size=1, max_size=16)
    header_values = st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                               max_codepoint=127),
        min_size=0, max_size=32)
    paths = st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                               max_codepoint=127),
        min_size=0, max_size=40).map(lambda suffix: "/" + suffix)

    @given(paths, st.dictionaries(header_names, header_values, max_size=5))
    @settings(max_examples=50)
    def test_request_roundtrip(self, path, headers):
        method, parsed_path, parsed = parse_request(
            build_request("GET", path, headers))
        assert method == "GET"
        assert parsed_path == path
        # Header names are case-insensitive on the wire: names that
        # collide after folding keep the last value in emission order.
        expected = {}
        for key, value in headers.items():
            expected[key.lower()] = value.strip()
        for key, value in expected.items():
            assert parsed[key] == value

    @given(st.sampled_from([200, 400, 404, 500]),
           st.binary(min_size=0, max_size=4096))
    @settings(max_examples=50)
    def test_response_roundtrip(self, status, body):
        parsed_status, headers, parsed_body = parse_response(
            build_response(status, body))
        assert parsed_status == status
        assert parsed_body == body
        assert int(headers["content-length"]) == len(body)


class TestReadOnlyProperties:
    @given(st.binary(min_size=1, max_size=512))
    def test_readonly_views_equal_plain_views(self, data):
        """Reading a frozen packet never changes what is read."""
        frozen = Mbuf.from_bytes(data).freeze().data
        assert bytes(frozen) == data
        assert frozen[0] == data[0]
        head = frozen[0:min(8, len(data))]
        assert head == data[0:min(8, len(data))]
        # Its slices are windows, not bytes: hashing takes bytes(...).
        assert hash(bytes(head)) == hash(data[0:min(8, len(data))])

    @given(st.binary(min_size=1, max_size=512),
           st.integers(min_value=0, max_value=511))
    def test_mutation_always_rejected(self, data, index):
        m = Mbuf.from_bytes(data).freeze()
        with pytest.raises(TypeError):
            m.data[index % len(data)] = 0
        assert m.to_bytes() == data  # unchanged
