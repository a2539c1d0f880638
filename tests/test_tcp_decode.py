"""TCP's decoder on hostile segments.

Valid segments are captured on ``nic.taps`` from a real connection on
both OS models: a SYN with the MSS option, the handshake's pure ACK, a
FIN, and data segments on both sides of the checksum's numpy crossover.
They are mutated -- truncated at every byte, the data offset set to 0-4
words, to exactly the segment and past it, the MSS option's length set to
0, 1, 3 or 255 or run past the header, the checksum set to 0, to 0xFFFF
or one bit flipped -- and put back on the wire inside a valid IP header,
so that TCP's decoder is the one that judges them.  A mutation that is
not a checksum test re-stamps the checksum, so the decoder's later checks
see it.  A SYN goes to a listener, the other segments to the connection
they were captured on, re-established in a fresh bed whose sender then
hears nothing (so no reply comes back).  Each runs on SPIN and UNIX,
under the generated scans and under the ``scan`` twin (``twins.py``).

An independent model over the bytes (``_expected``) says what must
happen: a counted drop (``checksum_errors``, or ``header_errors`` for a
segment shorter than the fixed header or with a bad data offset), or the
segment taken whole -- its payload delivered exactly, and for a SYN a
connection whose MSS is the one the option carries.  Nothing may raise
out of ``engine.run()``.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.net.checksum import internet_checksum_reference
from repro.net.headers import (ETHERNET_HEADER, IP_HEADER, IPPROTO_TCP,
                               pseudo_header)
from repro.net.tcp import TcpProto
from repro.obs.taps import NicTaps
from nethelpers import ip_datagram, put_frame
from twins import scan

SPORT, DPORT = 40000, 9000
_ETH = ETHERNET_HEADER.size
_IP = IP_HEADER.size
_TCP = 20
#: the MSS the captured SYN is rewritten to carry: below the receiver's
#: own 1,460, so a SYN whose option is honoured shows it
_MSS = 536
#: a MAC nobody sends to: the silenced sender's
_DEAF = b"\x02\x00\x00\x00\xde\xaf"
SYN, FIN, ACK = 0x02, 0x01, 0x10

_TWINS = pytest.mark.parametrize("twin", [contextlib.nullcontext, scan],
                                 ids=["generated", "scan"])
_OSES = pytest.mark.parametrize("os_name", ["spin", "unix"])


def _payload(size):
    return bytes((5 * i + 11) & 0xFF for i in range(size))


def _kernel(bed, index, fn):
    out = bed.engine.run_process(bed.hosts[index].kernel_path(fn))
    bed.engine.run()
    return out


class _Staged:
    """Every frame a NIC stages."""

    def __init__(self, nic):
        self.frames = []
        NicTaps(nic).join(self)

    def on_tx(self, nic, data):
        self.frames.append(bytes(data))


def _bed(os_name, connect):
    """A bed whose host 1 listens on ``DPORT`` and, if ``connect``, has
    host 0's connection from ``SPORT``; ``(bed, host 0's TCB, bytes host
    1 received, TCBs host 1 made)``."""
    bed = build_testbed(os_name, "ethernet")
    got = bytearray()
    made = []
    tcp = bed.stacks[1].tcp

    def register(key, tcb):
        made.append(tcb)
        TcpProto._register(tcp, key, tcb)
    tcp._register = register

    def accept(tcb):
        tcb.on_data = got.extend
    _kernel(bed, 1, lambda: tcp.listen(DPORT, accept))
    client = None
    if connect:
        client = _kernel(bed, 0, lambda: bed.stacks[0].tcp.connect(
            bed.ip(1), DPORT, SPORT))
    return bed, client, got, made


def _capture(os_name, size):
    """Host 0 opens a connection, sends ``size`` bytes once it is up and
    closes: the TCP segments its NIC staged, as IP datagrams."""
    bed, _client, _got, _made = _bed(os_name, connect=False)
    staged = _Staged(bed.nics[0])
    client = _kernel(bed, 0, lambda: bed.stacks[0].tcp.connect(
        bed.ip(1), DPORT, SPORT))
    if size:
        _kernel(bed, 0, lambda: client.send(_payload(size)))
    _kernel(bed, 0, client.close)
    out = []
    for frame in staged.frames:
        total = int.from_bytes(frame[_ETH + 2:_ETH + 4], "big")
        out.append(frame[_ETH:_ETH + total])
    return out


def _split(datagram):
    """(source, destination, TCP segment)."""
    return (int.from_bytes(datagram[12:16], "big"),
            int.from_bytes(datagram[16:20], "big"), datagram[_IP:])


def _flags(segment):
    return segment[13] & 0x3F


def _stamp(segment, src, dst):
    """``segment`` with the checksum the reference computes over it."""
    out = bytearray(segment)
    if len(out) >= 18:
        out[16:18] = b"\0\0"
        out[16:18] = internet_checksum_reference(
            pseudo_header(src, dst, IPPROTO_TCP, len(out))
            + bytes(out)).to_bytes(2, "big")
    return bytes(out)


def _segments(os_name):
    """``{kind: (src, dst, segment)}``: the SYN (its MSS rewritten to
    ``_MSS``), the handshake's pure ACK, the FIN of a connection that
    sent nothing, and data segments of 7 and 1,300 bytes."""
    quiet = _capture(os_name, 0)
    out = {}
    for datagram in quiet:
        src, dst, segment = _split(datagram)
        flags = _flags(segment)
        if flags == SYN:
            syn = bytearray(segment)
            assert syn[_TCP:_TCP + 2] == b"\x02\x04"
            syn[_TCP + 2:_TCP + 4] = _MSS.to_bytes(2, "big")
            out["syn"] = (src, dst, _stamp(syn, src, dst))
        elif flags == ACK and "ack" not in out:
            out["ack"] = (src, dst, segment)
        elif flags & FIN:
            out["fin"] = (src, dst, segment)
    for size in (7, 1300):
        [data] = [_split(d) for d in _capture(os_name, size)
                  if len(_split(d)[2]) > _TCP and not _flags(_split(d)[2]) & SYN]
        out["data%d" % size] = data
    return out


_CAPTURED = {os_name: _segments(os_name) for os_name in ("spin", "unix")}
_KINDS = ["syn", "ack", "fin", "data7", "data1300"]


def _mss(options):
    """The MSS option's value in ``options``, RFC 793's way: kind 0 ends
    the list, kind 1 is one byte, every other option has a length byte of
    at least 2 that must fit; an MSS has length 4.  None if absent."""
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:
            return None
        if kind == 1:
            i += 1
            continue
        if i + 1 >= len(options) or options[i + 1] < 2 or \
                i + options[i + 1] > len(options):
            return None
        if kind == 2 and options[i + 1] == 4:
            return int.from_bytes(options[i + 2:i + 4], "big")
        i += options[i + 1]
    return None


def _expected(segment, src, dst):
    """What TCP must do with ``segment``, from its bytes alone:
    ``("checksum",)``, ``("header",)``, or ``("take", payload, mss)``."""
    if len(segment) < _TCP:
        return ("header",)
    if internet_checksum_reference(
            pseudo_header(src, dst, IPPROTO_TCP, len(segment))
            + segment) != 0:
        return ("checksum",)
    data_off = (segment[12] >> 4) * 4
    if data_off < _TCP or data_off > len(segment):
        return ("header",)
    return ("take", segment[data_off:], _mss(segment[_TCP:data_off]))


def _feed(os_name, kind, segment):
    """Put ``segment`` (captured as ``kind``, mutated) on the wire to host
    1 and check TCP did what ``_expected`` says."""
    src, dst, _ = _CAPTURED[os_name][kind]
    bed, _client, got, made = _bed(os_name, connect=kind != "syn")
    tcp = bed.stacks[1].tcp
    bed.nics[0].address = _DEAF        # host 1's replies reach no one
    before = (tcp.segments_in, tcp.checksum_errors, tcp.header_errors)
    connections = len(made)
    put_frame(bed, ip_datagram(src, dst, IPPROTO_TCP, bytes(segment)))
    assert bed.stacks[1].ip.header_errors == 0
    counted = tuple(after - was for after, was in zip(
        (tcp.segments_in, tcp.checksum_errors, tcp.header_errors), before))
    outcome = _expected(segment, src, dst)
    new = made[connections:]
    if outcome[0] == "take":
        assert counted == (1, 0, 0)
        if kind == "syn":
            default = tcp.default_mss
            mss = outcome[2]
            assert [t.mss for t in new] == [
                default if mss is None or mss >= default else max(64, mss)]
            assert bytes(got) == b""   # a SYN's data waits for no one
        else:
            assert new == []
            assert bytes(got) == outcome[1]
        return
    assert counted == {"checksum": (0, 1, 0),
                       "header": (0, 0, 1)}[outcome[0]]
    assert (bytes(got), new) == (b"", [])


def _with_offset(segment, words):
    out = bytearray(segment)
    out[12] = (words << 4) | (out[12] & 0x0F)
    return bytes(out)


def _with_checksum(segment, value):
    out = bytearray(segment)
    out[16:18] = value.to_bytes(2, "big")
    return bytes(out)


class TestCapturedSegments:
    def test_segments_are_the_sends(self):
        """Each captured segment is taken whole: the SYN carries the MSS
        option, the data segments their bytes."""
        for captured in _CAPTURED.values():
            assert set(captured) == set(_KINDS)
            for kind, (src, dst, segment) in captured.items():
                outcome = _expected(segment, src, dst)
                assert outcome[0] == "take", kind
                if kind == "syn":
                    assert outcome[1:] == (b"", _MSS)
                elif kind.startswith("data"):
                    assert outcome[1] == _payload(int(kind[4:]))
                else:
                    assert outcome[1] == b""


@_OSES
@_TWINS
class TestHostileSegments:
    def test_every_truncation(self, os_name, twin):
        """Cut at every byte, the checksum left or re-stamped: shorter
        than the header, a data offset past the end, a bad checksum, or
        a shorter payload delivered."""
        with twin():
            for kind in ("syn", "data7"):
                src, dst, segment = _CAPTURED[os_name][kind]
                for cut in range(len(segment) + 1):
                    _feed(os_name, kind, segment[:cut])
                    _feed(os_name, kind, _stamp(segment[:cut], src, dst))

    def test_every_data_offset(self, os_name, twin):
        """0-4 words, the header alone, the whole segment (or its last
        whole word), just past it and 15 words."""
        with twin():
            for kind in _KINDS[:4]:
                src, dst, segment = _CAPTURED[os_name][kind]
                exact = len(segment) // 4
                for words in sorted({0, 1, 2, 3, 4, 5, exact, exact + 1, 15}):
                    _feed(os_name, kind,
                          _stamp(_with_offset(segment, words), src, dst))

    def test_mss_option_lengths(self, os_name, twin):
        """An MSS option of length 0, 1, 3 or 255, or one that runs past
        the header, is no MSS; length 4 is."""
        src, dst, syn = _CAPTURED[os_name]["syn"]
        with twin():
            for length in (0, 1, 2, 3, 4, 5, 255):
                mutant = bytearray(syn)
                mutant[_TCP + 1] = length
                _feed(os_name, "syn", _stamp(mutant, src, dst))
            # The option cut by the header's end, its bytes now payload.
            for words in (5, 6):
                mutant = bytearray(syn) + bytes(4)
                mutant[_TCP + 1] = 8
                _feed(os_name, "syn",
                      _stamp(_with_offset(mutant, words), src, dst))

    def test_checksum_fields(self, os_name, twin):
        """0 and 0xFFFF are checked like any other value; a flipped bit
        anywhere is a checksum error."""
        with twin():
            for kind in _KINDS:
                segment = _CAPTURED[os_name][kind][2]
                for value in (0, 0xFFFF):
                    _feed(os_name, kind, _with_checksum(segment, value))
                for bit in (0, 100, 8 * len(segment) - 1):
                    flipped = bytearray(segment)
                    flipped[bit // 8] ^= 0x80 >> (bit % 8)
                    _feed(os_name, kind, bytes(flipped))


@st.composite
def _mutants(draw):
    """A captured segment's OS and kind, and the segment after one to
    three cuts, data offsets or option lengths, then a re-stamped, zero,
    0xFFFF or re-stamped-and-flipped checksum."""
    os_name = draw(st.sampled_from(["spin", "unix"]))
    kind = draw(st.sampled_from(_KINDS))
    src, dst, segment = _CAPTURED[os_name][kind]
    segment = bytearray(segment)
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(["cut", "offset", "option"]))
        if what == "cut":
            del segment[draw(st.integers(0, len(segment))):]
        elif len(segment) < _TCP + 2:
            continue
        elif what == "offset":
            segment[12] = (draw(st.integers(0, 15)) << 4) | \
                (segment[12] & 0x0F)
        else:
            segment[_TCP + 1] = draw(st.sampled_from([0, 1, 3, 4, 255]))
    checksum = draw(st.sampled_from(["stamp", "zero", "ones", "flip"]))
    if checksum in ("zero", "ones") and len(segment) >= 18:
        segment[16:18] = b"\0\0" if checksum == "zero" else b"\xff\xff"
    else:
        segment = bytearray(_stamp(segment, src, dst))
        if checksum == "flip" and segment:
            bit = draw(st.integers(0, 8 * len(segment) - 1))
            segment[bit // 8] ^= 0x80 >> (bit % 8)
    return os_name, kind, bytes(segment)


@_TWINS
@given(mutant=_mutants())
@settings(max_examples=80, deadline=None)
def test_mutated_segments(twin, mutant):
    """Any mix of cuts, data offsets, option lengths and checksums: a
    counted drop or the segment taken whole, never an exception."""
    with twin():
        _feed(*mutant)
