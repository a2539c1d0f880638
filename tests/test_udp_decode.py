"""UDP's decoder on hostile datagrams, its folded pseudo-header, and
the largest datagram it sends.

* Hostile datagrams.  Valid frames are captured on ``nic.taps`` from
  real sends on both OS models, with and without a checksum, on both
  sides of the checksum's numpy crossover.  Their UDP datagrams are
  mutated -- truncated at every byte, the ``length`` field set below 8,
  past the datagram and to the exact value, the checksum set to 0, to
  0xFFFF or one bit flipped -- and put back on the wire inside a valid IP
  header, so that UDP's decoder is the one that judges them.  Each goes
  through SPIN and UNIX, under the generated scans and under the
  ``scan`` twin (``twins.py``).  An independent model over the bytes
  (``_expected``) says what must happen: a counted drop
  (``header_errors`` or ``checksum_errors``) or the delivery of exactly
  ``length - 8`` bytes.  Nothing may raise out of ``engine.run()``.
* The folded pseudo-header.  UDP hands ``internet_checksum`` the sum
  ``src + dst + IPPROTO_UDP + length`` as its ``initial``: the whole
  addresses, which are congruent to their two 16-bit words modulo
  0xFFFF.  A property holds it to ``pseudo_header_sum`` and to the
  per-byte reference over the pseudo-header's bytes, and holds what
  ``UdpProto.output`` stamps and ``UdpProto.input`` accepts to that
  reference.
* The largest datagram.  A payload over 65,507 bytes would give an IP
  total length over 65,535 (RFC 791): ``UdpProto.output`` refuses it with
  a ``ValueError`` before it charges anything, on both OS models.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.core import Credential
from repro.core.manager import discard_datagram
from repro.lang import ephemeral
from repro.net.checksum import internet_checksum, internet_checksum_reference
from repro.net.headers import (ETHERNET_HEADER, IP_HEADER, IPPROTO_UDP,
                               UDP_HEADER, pseudo_header, pseudo_header_sum)
from repro.net.udp import MAX_PAYLOAD, UdpProto
from repro.obs.taps import NicTaps
from repro.sim import Engine
from repro.spin.kernel import SpinKernel
from nethelpers import ETHER_MIN_FRAME, ip_datagram, put_frame
from twins import scan

SPORT, DPORT = 5001, 9000
_ETH = ETHERNET_HEADER.size
_IP = IP_HEADER.size
_UDP = UDP_HEADER.size

_TWINS = pytest.mark.parametrize("twin", [contextlib.nullcontext, scan],
                                 ids=["generated", "scan"])
_OSES = pytest.mark.parametrize("os_name", ["spin", "unix"])


def _payload(size):
    return bytes((7 * i + 3) & 0xFF for i in range(size))


class _Staged:
    """Every frame a NIC stages."""

    def __init__(self, nic):
        self.frames = []
        NicTaps(nic).join(self)

    def on_tx(self, nic, data):
        self.frames.append(bytes(data))


def _send(bed, os_name, payload, checksum=True):
    """Host 0 sends ``payload`` to host 1's ``DPORT`` in one datagram; the
    bed runs dry."""
    if os_name == "spin":
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("tx"), SPORT, discard_datagram, checksum=checksum)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: endpoint.send(payload, bed.ip(1), DPORT)))
    else:
        sock = bed.sockets[0].udp_socket()

        def send():
            yield from sock.bind(SPORT)
            yield from sock.sendto(payload, (bed.ip(1), DPORT),
                                   checksum=checksum)
        bed.engine.run_process(send())
    bed.engine.run()


def _receiver(bed, os_name):
    """Bind host 1's ``DPORT``; returns a function that takes the
    payloads delivered since it was last called."""
    if os_name == "spin":
        got = []

        @ephemeral
        def keep(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append(m.to_bytes()[off:])
        bed.stacks[1].udp_manager.bind(Credential("rx"), DPORT, keep)

        def taken():
            out = list(got)
            got.clear()
            return out
        return taken
    sock = bed.sockets[1].udp_socket()
    bed.engine.run_process(sock.bind(DPORT))

    def taken():
        out = []
        while sock.buffer.items:
            out.append(sock.buffer.pop()[0])
        return out
    return taken


def _capture(os_name, size, checksum):
    """A valid frame carrying a ``size``-byte datagram, as host 0's NIC
    staged it."""
    bed = build_testbed(os_name, "ethernet")
    staged = _Staged(bed.nics[0])
    _send(bed, os_name, _payload(size), checksum)
    [frame] = staged.frames
    return frame


#: (payload size, checksummed): empty, odd, a full frame, and datagrams
#: on both sides of the checksum's numpy crossover (1,024 bytes).
_SHAPES = [(0, True), (1, True), (8, True), (8, False), (255, True),
           (1015, True), (1017, True), (1472, True)]
_FRAMES = [_capture(os_name, size, checksum)
           for os_name in ("spin", "unix") for size, checksum in _SHAPES]


def _split(frame):
    """(Ethernet header, source, destination, UDP datagram)."""
    total = int.from_bytes(frame[_ETH + 2:_ETH + 4], "big")
    src = int.from_bytes(frame[_ETH + 12:_ETH + 16], "big")
    dst = int.from_bytes(frame[_ETH + 16:_ETH + 20], "big")
    return frame[:_ETH], src, dst, frame[_ETH + _IP:_ETH + total]


def _expected(datagram, src, dst):
    """What UDP must do with ``datagram``, from its bytes alone:
    ``("deliver", payload)``, ``("header",)``, ``("checksum",)`` or
    ``("no port",)`` (accepted, for a port nobody bound)."""
    if len(datagram) < _UDP:
        return ("header",)
    length = int.from_bytes(datagram[4:6], "big")
    if length < _UDP or length > len(datagram):
        return ("header",)
    if datagram[6:8] != b"\0\0" and internet_checksum_reference(
            pseudo_header(src, dst, IPPROTO_UDP, length)
            + datagram[:length]) != 0:
        return ("checksum",)
    if int.from_bytes(datagram[2:4], "big") != DPORT:
        return ("no port",)
    return ("deliver", datagram[_UDP:length])


def _feed(os_name, frame, datagram, pad_to=ETHER_MIN_FRAME):
    """Put ``datagram`` on the wire to host 1, inside ``frame``'s Ethernet
    header and a valid IP header, in a frame zero-padded to ``pad_to``
    bytes (0: a runt ends where the datagram does); check UDP did what
    ``_expected`` says."""
    eth, src, dst, _ = _split(frame)
    bed = build_testbed(os_name, "ethernet")
    taken = _receiver(bed, os_name)
    udp = bed.stacks[1].udp
    # Host 0's driver sends it: the destination MAC is host 1's, as in
    # the captured frame.
    put_frame(bed, ip_datagram(src, dst, IPPROTO_UDP, bytes(datagram)),
              pad_to)
    assert eth[:6] == bed.nics[1].address
    assert bed.stacks[1].ip.header_errors == 0
    outcome = _expected(datagram, src, dst)
    counted = (udp.header_errors, udp.checksum_errors)
    if outcome[0] == "deliver":
        assert (taken(), counted, udp.datagrams_in) == ([outcome[1]], (0, 0), 1)
    elif outcome[0] == "no port":
        assert (taken(), counted, udp.datagrams_in) == ([], (0, 0), 1)
    else:
        assert taken() == []
        assert counted == ((1, 0) if outcome[0] == "header" else (0, 1))
        assert udp.datagrams_in == 0


def _with_length(datagram, length):
    out = bytearray(datagram)
    out[4:6] = length.to_bytes(2, "big")
    return bytes(out)


def _with_checksum(datagram, value):
    out = bytearray(datagram)
    out[6:8] = value.to_bytes(2, "big")
    return bytes(out)


class TestCapturedFrames:
    def test_frames_are_the_sends(self):
        """Each captured frame carries its datagram whole, and the model
        delivers its payload."""
        for frame, (size, checksum) in zip(_FRAMES, _SHAPES * 2):
            _eth, src, dst, datagram = _split(frame)
            assert len(datagram) == _UDP + size
            assert (datagram[6:8] != b"\0\0") == checksum
            assert _expected(datagram, src, dst) == ("deliver", _payload(size))


@_OSES
@_TWINS
class TestHostileDatagrams:
    def test_every_truncation(self, os_name, twin):
        """Cut at every byte: a datagram shorter than its header or its
        ``length`` is a counted header error, padded or not."""
        frame = _FRAMES[2]          # 8 bytes of payload, checksummed
        datagram = _split(frame)[3]
        with twin():
            for cut in range(len(datagram) + 1):
                for pad_to in (0, ETHER_MIN_FRAME):
                    _feed(os_name, frame, datagram[:cut], pad_to)

    def test_every_small_length(self, os_name, twin):
        """``length`` below the header, every value up to past the
        datagram, and a large one: only the exact value delivers."""
        frame = _FRAMES[2]
        datagram = _split(frame)[3]
        with twin():
            for length in [*range(len(datagram) + 3), 0xFFFF]:
                _feed(os_name, frame, _with_length(datagram, length))

    def test_checksum_fields(self, os_name, twin):
        """A zero checksum is skipped, 0xFFFF and a flipped bit are
        checked."""
        with twin():
            for frame in _FRAMES[:8]:
                datagram = _split(frame)[3]
                for value in (0, 0xFFFF):
                    _feed(os_name, frame, _with_checksum(datagram, value))
                for bit in (0, 15, 8 * len(datagram) - 1):
                    flipped = bytearray(datagram)
                    flipped[bit // 8] ^= 0x80 >> (bit % 8)
                    _feed(os_name, frame, bytes(flipped))


@st.composite
def _mutants(draw):
    """A captured frame, its datagram after one to three mutations, and
    the size the frame is padded to."""
    frame = draw(st.sampled_from(_FRAMES))
    datagram = bytearray(_split(frame)[3])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cut", "length", "checksum", "flip"]))
        if kind == "cut":
            del datagram[draw(st.integers(0, len(datagram))):]
        elif len(datagram) < _UDP:
            continue
        elif kind == "length":
            exact = len(datagram)
            datagram[4:6] = draw(st.one_of(
                st.integers(0, _UDP - 1), st.just(exact),
                st.integers(exact + 1, exact + 16),
                st.integers(0, 0xFFFF))).to_bytes(2, "big")
        elif kind == "checksum":
            datagram[6:8] = draw(st.sampled_from(
                [b"\0\0", b"\xff\xff"]))
        else:
            bit = draw(st.integers(0, 8 * len(datagram) - 1))
            datagram[bit // 8] ^= 0x80 >> (bit % 8)
    return frame, bytes(datagram), draw(st.sampled_from([0, ETHER_MIN_FRAME]))


@_OSES
@_TWINS
@given(mutant=_mutants())
@settings(max_examples=60, deadline=None)
def test_mutated_datagrams(os_name, twin, mutant):
    """Any mix of cuts, lying lengths, checksum values and flipped bits:
    a counted drop or exactly ``length - 8`` bytes, never an exception."""
    with twin():
        _feed(os_name, *mutant)


# ---------------------------------------------------------------------------
# the folded pseudo-header
# ---------------------------------------------------------------------------

_ADDRESSES = st.integers(0, 0xFFFFFFFF)
#: 0-3,000 bytes: odd and even, on both sides of the numpy crossover
_DATA = st.binary(min_size=0, max_size=3000)


class TestFoldedPseudoHeader:
    @given(_ADDRESSES, _ADDRESSES, st.integers(0, 0xFFFF), _DATA)
    @settings(max_examples=150, deadline=None)
    def test_whole_addresses_fold_like_the_pseudo_header(self, src, dst,
                                                         length, data):
        """The sum UDP passes as ``initial`` checks like the word sum
        and like the pseudo-header's bytes."""
        folded = internet_checksum(data, src + dst + IPPROTO_UDP + length)
        assert folded == internet_checksum(
            data, pseudo_header_sum(src, dst, IPPROTO_UDP, length))
        assert folded == internet_checksum_reference(
            pseudo_header(src, dst, IPPROTO_UDP, length) + data)

    @given(_ADDRESSES, _ADDRESSES, _DATA)
    @settings(max_examples=100, deadline=None)
    def test_output_stamps_and_input_accepts_the_reference(self, src, dst,
                                                           data):
        """``UdpProto.output`` stamps the reference checksum over the
        pseudo-header and the datagram (0 sent as 0xFFFF), and
        ``UdpProto.input`` delivers that datagram and refuses it with any
        other checksum that is not 0 ("unchecked")."""
        engine = Engine()
        host = SpinKernel(engine, "h")
        sent, delivered = [], []

        class _Ip:
            my_ip = src

            def output(self, packet, dst_ip, protocol, src=None):
                sent.append(packet.to_bytes())
        udp = UdpProto(host, _Ip())
        udp.upcall = lambda m, off, *rest: delivered.append(
            m.to_bytes()[off:])

        def send():
            udp.output(host.mbufs.from_bytes(data), SPORT, dst, DPORT)
        engine.run_process(host.kernel_path(send))
        [datagram] = sent
        length = _UDP + len(data)
        zeroed = _with_checksum(datagram, 0)
        reference = internet_checksum_reference(
            pseudo_header(src, dst, IPPROTO_UDP, length) + zeroed)
        assert datagram == _with_checksum(zeroed, reference or 0xFFFF)

        # 1..0xFFFE, and not the stamped value nor its one's-complement
        # twin (0 and 0xFFFF are both zero).
        wrong = _with_checksum(datagram, (reference % 0xFFFE) + 1)
        for packet in (datagram, wrong):
            engine.run_process(host.kernel_path(
                lambda: udp.input(host.mbufs.from_bytes(packet), 0, src, dst)))
        assert delivered == [data]
        assert (udp.datagrams_in, udp.checksum_errors) == (1, 1)


# ---------------------------------------------------------------------------
# the largest datagram
# ---------------------------------------------------------------------------

@_OSES
class TestLargestDatagram:
    def test_65507_bytes_are_sent_and_65508_refused(self, os_name):
        """65,507 bytes cross as fragments and are delivered whole; one
        byte more is a ``ValueError`` before UDP charges anything."""
        assert MAX_PAYLOAD == 65_507
        bed = build_testbed(os_name, "ethernet")
        taken = _receiver(bed, os_name)
        _send(bed, os_name, _payload(MAX_PAYLOAD))
        assert taken() == [_payload(MAX_PAYLOAD)]
        udp = bed.stacks[0].udp
        cpu = bed.hosts[0].cpu
        sent, protocol = udp.datagrams_out, cpu.category_times["protocol"]
        big = _payload(MAX_PAYLOAD + 1)
        if os_name == "spin":
            endpoint = bed.stacks[0].udp_manager.bind(
                Credential("big"), SPORT + 1, discard_datagram)
            refused = bed.hosts[0].kernel_path(
                lambda: endpoint.send(big, bed.ip(1), DPORT))
        else:
            refused = bed.sockets[0].udp_socket().sendto(
                big, (bed.ip(1), DPORT))
        with pytest.raises(ValueError, match="65508"):
            bed.engine.run_process(refused)
        assert udp.datagrams_out == sent
        assert cpu.category_times["protocol"] == protocol
        bed.engine.run()
        assert taken() == []
