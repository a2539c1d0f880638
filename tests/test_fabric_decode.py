"""The switch's header parser and data plane against independent models.

``PacketFields`` reads a frame's IPv4 header with one ``struct`` unpack
and its ports with a second.  The slice-by-slice parser it replaced is
kept below as the oracle; hypothesis feeds both parsers valid frames and
hostile ones -- truncated anywhere, a version other than 4, a header
length under five words or past the end of the frame, fragments, and
protocols other than UDP and TCP -- and every field must agree, ``ok``
included.  A switch hop books each chain it moves exactly as building
it with ``from_bytes`` booked.

The same hostile frames then go through a whole switch hop -- a port's
device input, in a kernel path, under generated dispatch and under the
``scan`` twin's reference (``twins.py``) -- under random route tables of
egress groups, and a reference interpreter of the table over the slice
parser says what must come out.
"""

import contextlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.table import PacketFields
from repro.fabric.topology import FabricBed, _add_switch
from repro.hw.alpha import ALPHA_21064
from repro.hw.host import Host
from repro.net.fwdtable import prefix_mask
from repro.net.headers import IP_HEADER, IPPROTO_TCP, IPPROTO_UDP
from repro.obs.taps import NicTaps
from repro.sim import Engine
from repro.spin.mbuf import MCLBYTES, MLEN, MbufPool
from twins import scan


def _slice_parse(data):
    """The parser ``PacketFields`` replaced, as a dict of its fields."""
    fields = dict(ok=False, proto=0, src_ip=0, dst_ip=0, src_port=0,
                  dst_port=0)
    if len(data) < IP_HEADER.size or (data[0] >> 4) != 4:
        return fields
    header_len = (data[0] & 0x0F) * 4
    if header_len < IP_HEADER.size or len(data) < header_len:
        return fields
    fields["proto"] = data[9]
    fields["src_ip"] = int.from_bytes(data[12:16], "big")
    fields["dst_ip"] = int.from_bytes(data[16:20], "big")
    frag = int.from_bytes(data[6:8], "big")
    if fields["proto"] in (IPPROTO_UDP, IPPROTO_TCP) and \
            (frag & 0x1FFF) == 0 and len(data) >= header_len + 4:
        fields["src_port"] = int.from_bytes(data[header_len:header_len + 2],
                                            "big")
        fields["dst_port"] = int.from_bytes(
            data[header_len + 2:header_len + 4], "big")
    fields["ok"] = True
    return fields


def _parsed(data):
    fields = PacketFields(data)
    return {name: getattr(fields, name) for name in PacketFields.__slots__}


def _frame(version=4, ihl=5, frag=0, proto=IPPROTO_UDP, rest=b"\x04\xd2"
           b"\x16\x2e" + bytes(12), tos=0x10, ttl=17,
           src=0x0A000002, dst=0x0A000102):
    header = struct.pack("!BBHHHBBHII", version << 4 | ihl, tos, 0, 0, frag,
                         ttl, proto, 0, src, dst)
    return header + rest


_U8 = st.integers(0, 0xFF)
_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def _frames(draw):
    """A frame that is often a valid UDP/TCP packet and often not."""
    frame = _frame(
        version=draw(st.sampled_from([4, 4, 4, 0, 6, 15])),
        ihl=draw(st.one_of(st.just(5), st.integers(0, 15))),
        frag=draw(st.one_of(st.sampled_from([0, 0x4000, 0x2000, 0x1000,
                                             0x0001, 0xE000]), _U16)),
        proto=draw(st.one_of(st.sampled_from([IPPROTO_UDP, IPPROTO_TCP]),
                             _U8)),
        rest=draw(st.binary(max_size=64)),
        tos=draw(_U8), ttl=draw(_U8), src=draw(_U32), dst=draw(_U32))
    cut = draw(st.one_of(st.none(), st.integers(0, len(frame))))
    return frame if cut is None else frame[:cut]


class TestPacketFields:
    @given(_frames())
    @settings(max_examples=500, deadline=None)
    def test_struct_parse_equals_the_slice_parser(self, frame):
        """Field for field, ``ok`` included."""
        assert _parsed(frame) == _slice_parse(frame)

    @pytest.mark.parametrize("frame", [
        _frame(),
        _frame(proto=IPPROTO_TCP),
        _frame(version=6),
        _frame(ihl=4),
        _frame(ihl=15),
        _frame(frag=0x0001),
        _frame(frag=0x1000),
        _frame(frag=0x2000),
        _frame(frag=0x4000),
        _frame(proto=1),
    ], ids=["udp", "tcp", "version-6", "ihl-4", "ihl-past-end",
            "fragment-offset", "high-offset-bit", "more-fragments",
            "dont-fragment", "icmp"])
    def test_every_truncation_below_24_bytes(self, frame):
        for length in range(24):
            assert _parsed(frame[:length]) == _slice_parse(frame[:length])
        assert _parsed(frame) == _slice_parse(frame)

    def test_hostile_frames_get_the_zero_defaults(self):
        for frame in (_frame()[:19], _frame(version=6), _frame(ihl=4),
                      _frame(ihl=15)):
            fields = _parsed(frame)
            assert not fields.pop("ok")
            assert set(fields.values()) == {0}
        for frame in (_frame(frag=0x0001), _frame(proto=1), _frame()[:23]):
            fields = _parsed(frame)
            assert fields["ok"] and fields["dst_ip"] == 0x0A000102
            assert fields["src_port"] == fields["dst_port"] == 0
        assert _parsed(_frame())["src_port"] == 1234
        assert _parsed(_frame())["dst_port"] == 5678


def _booked(charge):
    """What ``charge(pool)`` books on a fresh host's mbuf pool."""
    host = Host(Engine(), "h")
    pool = MbufPool(host)
    marker = host.cpu.begin()
    charge(pool)
    return (pool.allocated, pool.chains, host.cpu.end(marker),
            host.cpu.category_times)


def _hop_booked(frame):
    """What one switch hop of ``frame`` books on the switch's mbuf pool,
    ``(links, chains, mbuf time)``, and whether it forwarded the frame:
    a frame that parses takes the default route out of port 1."""
    bed = FabricBed(Engine(), "spin", 0, "interrupt", ALPHA_21064)
    switch = _add_switch(bed, "sw", [("sw-p0", "peer-0"),
                                     ("sw-p1", "peer-1")], [(0, 0, (1,))])
    host, port = switch.host, switch.ports[0]
    bed.engine.process(host.kernel_path(
        switch._device_input, (port, port.nic, frame)))
    bed.engine.run()
    pool = host.mbufs
    return ((pool.allocated, pool.chains, host.cpu.category_times["mbuf"]),
            switch.pipeline_forwarded == 1)


@pytest.mark.parametrize("size", [
    0, 1, MLEN - 1, MLEN, MLEN + 1, MCLBYTES - 1, MCLBYTES, MCLBYTES + 1,
    2 * MCLBYTES, 2 * MCLBYTES + 1, 9000])
def test_charge_chain_books_what_from_bytes_built(size):
    """A switch hop books each chain it moves in place -- the ingress
    one, and the egress one when it forwards -- as building the frame
    with ``from_bytes`` would have booked it."""
    built = _booked(lambda pool: pool.from_bytes(bytes(size),
                                                 leading_space=0))
    links = 1 if size <= MLEN else -(-size // MCLBYTES)
    assert built[:2] == (links, 1)
    frame = _frame(rest=bytes(size - 20)) if size >= 20 else bytes(size)
    booked, forwarded = _hop_booked(frame)
    assert forwarded == (size >= 20)
    one = (links, 1, built[3]["mbuf"])
    assert booked == (one if not forwarded else
                      (2 * links, 2, one[2] + one[2]))


# ---------------------------------------------------------------------------
# hostile frames through a whole switch hop
# ---------------------------------------------------------------------------

N_PORTS = 3


@st.composite
def _routes(draw, parsed):
    """Up to six routes, each a prefix and an egress group of one port or
    more (ECMP); networks are often a frame's own destination, so routes
    hit as well as miss, and a prefix may be installed twice (the later
    group replaces the earlier)."""
    network = st.one_of(
        st.sampled_from([fields["dst_ip"] for fields in parsed]), _U32)
    return draw(st.lists(st.tuples(
        network, st.integers(0, 32),
        st.lists(st.integers(0, N_PORTS - 1), min_size=1, max_size=N_PORTS,
                 unique=True).map(tuple)), max_size=6))


def _model(routes, frame):
    """The reference route: the egress group of the longest prefix that
    covers the frame's destination, or None (dropped)."""
    fields = _slice_parse(frame)
    if not fields["ok"]:
        return None
    table = {}
    for network, prefix_len, ports in routes:
        table[network & prefix_mask(prefix_len), prefix_len] = ports
    covering = [(prefix_len, ports)
                for (network, prefix_len), ports in table.items()
                if fields["dst_ip"] & prefix_mask(prefix_len) == network]
    return max(covering)[1] if covering else None


class _Staged:
    """Every frame the switch stages, as (port index, bytes)."""

    def __init__(self, switch):
        self.frames = []
        self._index = {}
        for port in switch.ports:
            self._index[port.nic] = port.index
            NicTaps(port.nic).join(self)

    def on_tx(self, nic, data):
        self.frames.append((self._index[nic], bytes(data)))


@st.composite
def _parsable_frames(draw):
    """A frame the pipeline can route: version 4, a header of five to
    eight words (options are arbitrary bytes) inside the frame."""
    ihl = draw(st.integers(5, 8))
    return _frame(
        ihl=ihl,
        frag=draw(st.sampled_from([0, 0, 0x4000, 0x2000, 0x0001])),
        proto=draw(st.sampled_from([IPPROTO_UDP, IPPROTO_TCP, 1])),
        rest=draw(st.binary(min_size=(ihl - 5) * 4, max_size=64)),
        tos=draw(_U8), ttl=draw(_U8), src=draw(_U32), dst=draw(_U32))


@st.composite
def _hop(draw):
    frames = draw(st.lists(st.tuples(
        st.integers(0, N_PORTS - 1),
        st.one_of(_frames(), _parsable_frames(), _parsable_frames())),
        min_size=1, max_size=4))
    routes = draw(_routes([_slice_parse(frame) for _, frame in frames]))
    return frames, routes


@pytest.mark.parametrize("twin", [contextlib.nullcontext, scan],
                         ids=["generated", "scan"])
@given(hop=_hop())
@settings(max_examples=200, deadline=None)
def test_hostile_frames_through_a_switch_hop(twin, hop):
    """Every frame is forwarded or counted dropped, no handler fails,
    the switch conserves frames, and a forwarded frame leaves unchanged
    on a port of its route's egress group."""
    with twin():
        _switch_hop(*hop)


def _switch_hop(frames, routes):
    bed = FabricBed(Engine(), "spin", 0, "interrupt", ALPHA_21064)
    switch = _add_switch(bed, "sw", [("sw-p%d" % i, "peer-%d" % i)
                                     for i in range(N_PORTS)], routes)
    staged = _Staged(switch)
    host = switch.host

    def feed():
        for index, frame in frames:
            nic = switch.ports[index].nic
            device_input, _label = host._device_input[nic.name]
            yield from host.kernel_path(device_input, (nic, frame))

    bed.engine.process(feed())
    bed.engine.run()

    assert host.dispatcher.total_failures == 0
    assert bed.switch_conservation() == []
    dropped, outputs = 0, iter(staged.frames)
    for _index, frame in frames:
        ports = _model(routes, frame)
        if ports is None:
            dropped += 1
            continue
        port, out = next(outputs)
        assert port in ports
        assert out == frame
    assert next(outputs, None) is None
    assert switch.pipeline_dropped == dropped
    assert switch.pipeline_forwarded == len(frames) - dropped
    assert switch.table_hits == len(frames) - dropped
