"""The switch's header parser and egress charge against what they replaced.

``PacketFields`` reads a frame's IPv4 header with one ``struct`` unpack
and its ports with a second.  The slice-by-slice parser it replaced is
kept below as the oracle; hypothesis feeds both parsers valid frames and
hostile ones -- truncated anywhere, a version other than 4, a header
length under five words or past the end of the frame, fragments, and
protocols other than UDP and TCP -- and every field must agree, ``ok``
included.  ``MbufPool.charge_chain`` books exactly what building the
egress chain with ``from_bytes`` booked.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.table import PacketFields
from repro.hw.host import Host
from repro.net.headers import IP_HEADER, IPPROTO_TCP, IPPROTO_UDP
from repro.sim import Engine
from repro.spin.mbuf import MCLBYTES, MLEN, MbufPool


def _slice_parse(data):
    """The parser ``PacketFields`` replaced, as a dict of its fields."""
    fields = dict(ok=False, proto=0, src_ip=0, dst_ip=0, ttl=0, tos=0,
                  src_port=0, dst_port=0, header_len=0, total_len=len(data))
    if len(data) < IP_HEADER.size or (data[0] >> 4) != 4:
        return fields
    header_len = (data[0] & 0x0F) * 4
    if header_len < IP_HEADER.size or len(data) < header_len:
        return fields
    fields["header_len"] = header_len
    fields["tos"] = data[1]
    fields["ttl"] = data[8]
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
    @given(_frames(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_struct_parse_equals_the_slice_parser(self, frame, writable):
        """Field for field, ``ok`` included; the pipeline parses bytes,
        and ``apply_modify`` re-reads a writable copy."""
        data = bytearray(frame) if writable else frame
        assert _parsed(data) == _slice_parse(data)

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
            assert fields.pop("total_len") == len(frame)
            assert set(fields.values()) == {0}
        for frame in (_frame(frag=0x0001), _frame(proto=1), _frame()[:23]):
            fields = _parsed(frame)
            assert fields["ok"] and fields["header_len"] == 20
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


@pytest.mark.parametrize("size", [
    0, 1, MLEN - 1, MLEN, MLEN + 1, MCLBYTES - 1, MCLBYTES, MCLBYTES + 1,
    2 * MCLBYTES, 2 * MCLBYTES + 1, 9000])
def test_charge_chain_books_what_from_bytes_built(size):
    built = _booked(lambda pool: pool.from_bytes(bytes(size),
                                                 leading_space=0))
    assert _booked(lambda pool: pool.charge_chain(size)) == built
    links = 1 if size <= MLEN else -(-size // MCLBYTES)
    assert built[:2] == (links, 1)
