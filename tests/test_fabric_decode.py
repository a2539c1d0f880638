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
``scan`` twin's reference (``twins.py``) -- under random
Count / Modify / Drop / Forward programs, and a reference interpreter of
the program over the slice parser says what must come out.
"""

import contextlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.table import (MATCH_FIELDS, MODIFY_FIELDS, Count, Drop,
                                Forward, MatchTable, Modify, PacketFields)
from repro.fabric.topology import FabricBed, _add_switch
from repro.hw.alpha import ALPHA_21064
from repro.hw.host import Host
from repro.net.checksum import internet_checksum
from repro.net.fwdtable import prefix_mask
from repro.net.headers import (IP_HEADER, IPPROTO_TCP, IPPROTO_UDP,
                               pseudo_header_sum)
from repro.obs.taps import NicTaps
from repro.sim import Engine
from repro.spin.mbuf import MCLBYTES, MLEN, MbufPool
from twins import scan


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
#: where each Modify field lies in the IPv4 header: (offset, width)
_FIELD_BYTES = {"tos": (1, 1), "ttl": (8, 1), "src_ip": (12, 4),
                "dst_ip": (16, 4)}


@st.composite
def _modify(draw):
    """A Modify spec, its value often one the field cannot hold."""
    field = draw(st.sampled_from(sorted(MODIFY_FIELDS)))
    top = MODIFY_FIELDS[field]
    return ("modify", field, draw(st.one_of(
        st.integers(0, top), st.sampled_from([-1, top + 1, 300, 1 << 32]))))


@st.composite
def _actions(draw):
    """Counts and Modifys, then maybe a Forward (one port or ECMP) or a
    Drop; with neither, the walk goes on to the next table."""
    actions = draw(st.lists(st.one_of(
        st.tuples(st.just("count"), st.sampled_from("abc")), _modify()),
        max_size=3))
    end = draw(st.sampled_from(["forward", "forward", "drop", None]))
    if end == "forward":
        ports = draw(st.lists(st.integers(0, N_PORTS - 1), min_size=1,
                              max_size=N_PORTS, unique=True))
        actions.append(("forward", tuple(ports)))
    elif end == "drop":
        actions.append(("drop",))
    return actions


@st.composite
def _program(draw, parsed):
    """One to three tables; keys are often a frame's own field values, so
    entries hit as well as miss."""
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(MATCH_FIELDS))
        lpm = field in ("src_ip", "dst_ip") and draw(st.booleans())
        key = st.one_of(
            st.sampled_from([fields[field] for fields in parsed]), _U32)
        entries = draw(st.lists(st.tuples(
            key, st.integers(0, 32) if lpm else st.none(), _actions()),
            max_size=4))
        default = draw(st.one_of(st.none(), _actions()))
        tables.append((field, "lpm" if lpm else "exact", entries, default))
    return tables


def _build(specs):
    """The action objects for ``specs`` and the specs they kept: a Modify
    whose value its field cannot hold is refused where it is built."""
    actions, kept = [], []
    for spec in specs:
        kind = spec[0]
        if kind == "modify":
            _, field, value = spec
            try:
                action = Modify(field, value)
            except ValueError:
                assert not 0 <= value <= MODIFY_FIELDS[field]
                continue
        elif kind == "count":
            action = Count(spec[1])
        elif kind == "forward":
            action = Forward(*spec[1])
        else:
            action = Drop()
        actions.append(action)
        kept.append(spec)
    return tuple(actions), kept


def _install(switch, program):
    """Program ``switch``; returns the model's tables, refused Modifys
    left out, in the same shape."""
    model = []
    switch.tables[:] = []
    for index, (field, kind, entries, default) in enumerate(program):
        table = MatchTable("t%d" % index, field, kind=kind)
        rules = {}
        for key, prefix_len, specs in entries:
            actions, kept = _build(specs)
            if not actions:
                continue  # an entry needs an action; so does the model's
            table.set(key, actions, prefix_len=prefix_len)
            if kind == "lpm":
                rules[key & prefix_mask(prefix_len), prefix_len] = kept
            else:
                rules[key] = kept
        if default is not None:
            table.default, default = _build(default)
        switch.add_table(table)
        model.append((field, kind, rules, default))
    return model


def _model_lookup(kind, rules, value):
    if kind == "exact":
        return rules.get(value)
    covering = [(prefix_len, kept)
                for (network, prefix_len), kept in rules.items()
                if value & prefix_mask(prefix_len) == network]
    return max(covering, key=lambda hit: hit[0])[1] if covering else None


def _model(model, frame):
    """The reference walk: ``(ports or None, counters, writes)``, where
    ``ports`` is the Forward's egress group (None: dropped) and ``writes``
    maps each rewritten field to its last value."""
    fields = _slice_parse(frame)
    counters, writes = {}, {}
    if not fields["ok"]:
        return None, counters, writes
    for field, kind, rules, default in model:
        specs = _model_lookup(kind, rules, fields[field])
        if specs is None:
            specs = default
        for spec in specs or ():
            if spec[0] == "count":
                counters[spec[1]] = counters.get(spec[1], 0) + 1
            elif spec[0] == "modify":
                # A later table matches on the rewritten value.
                fields[spec[1]] = writes[spec[1]] = spec[2]
            elif spec[0] == "forward":
                return spec[1], counters, writes
            else:
                return None, counters, writes
    return None, counters, writes


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


#: where the UDP / TCP checksum lies in its header
_L4_CHECKSUM = {IPPROTO_UDP: 6, IPPROTO_TCP: 16}


def _check_rewrite(frame, out, writes):
    """``out`` is ``frame`` with ``writes`` applied and checksums
    re-folded, and nothing else changed."""
    assert len(out) == len(frame)
    if not writes:
        assert out == frame
        return
    header_len = (frame[0] & 0x0F) * 4
    proto, segment = frame[9], out[header_len:]
    offset = _L4_CHECKSUM.get(proto)
    # The L4 checksum re-folds when an address changed the pseudo-header,
    # on an unfragmented UDP / TCP segment that holds it, unless UDP's is
    # zero ("unchecked").
    refolds = (offset is not None and {"src_ip", "dst_ip"} & set(writes)
               and not int.from_bytes(frame[6:8], "big") & 0x1FFF
               and len(segment) >= offset + 2
               and not (proto == IPPROTO_UDP and
                        frame[header_len + 6:header_len + 8] == b"\0\0"))
    spared = {10, 11}
    if refolds:
        spared |= {header_len + offset, header_len + offset + 1}
    for field, value in writes.items():
        at, width = _FIELD_BYTES[field]
        assert int.from_bytes(out[at:at + width], "big") == value
        spared |= set(range(at, at + width))
    assert [b for i, b in enumerate(out) if i not in spared] == \
        [b for i, b in enumerate(frame) if i not in spared]
    assert internet_checksum(out[:header_len]) == 0
    if refolds:
        src = int.from_bytes(out[12:16], "big")
        dst = int.from_bytes(out[16:20], "big")
        assert internet_checksum(segment, initial=pseudo_header_sum(
            src, dst, proto, len(segment))) == 0


@st.composite
def _parsable_frames(draw):
    """A frame the pipeline can match: version 4, a header of five to
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
    program = draw(_program([_slice_parse(frame) for _, frame in frames]))
    return frames, program


@pytest.mark.parametrize("twin", [contextlib.nullcontext, scan],
                         ids=["generated", "scan"])
@given(hop=_hop())
@settings(max_examples=200, deadline=None)
def test_hostile_frames_through_a_switch_hop(twin, hop):
    """Every frame is forwarded or counted dropped, no handler fails,
    the switch conserves frames, and a forwarded frame is its input with
    only the Modify fields and their checksums rewritten."""
    with twin():
        _switch_hop(*hop)


def _switch_hop(frames, program):
    bed = FabricBed(Engine(), "spin", 0, "interrupt", ALPHA_21064)
    switch = _add_switch(bed, "sw", [("sw-p%d" % i, "peer-%d" % i)
                                     for i in range(N_PORTS)], [])
    model = _install(switch, program)
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
    expected_counters, dropped, outputs = {}, 0, iter(staged.frames)
    for _index, frame in frames:
        ports, counters, writes = _model(model, frame)
        for name, count in counters.items():
            expected_counters[name] = expected_counters.get(name, 0) + count
        if ports is None:
            dropped += 1
            continue
        port, out = next(outputs)
        assert port in ports
        _check_rewrite(frame, out, writes)
    assert next(outputs, None) is None
    assert switch.pipeline_dropped == dropped
    assert switch.pipeline_forwarded == len(frames) - dropped
    assert switch.counters == expected_counters
