"""TCP loss-recovery corners: RTO backoff, Karn's rule, fast recovery.

These complement test_net_tcp.py with precise checks on the retransmit
machinery itself: the exponential backoff must double up to (and stop
at) the RTO ceiling, RTT samples must never be taken from retransmitted
segments, and fast recovery must deflate cwnd back to ssthresh when the
recovery point is acked.  A lossy, reordered transfer must behave the
same wherever its sequence numbers sit, across 2**32 included.
"""

from contextlib import contextmanager
from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.net.tcp import TcpState
from repro.net.tcp.tcb import Tcb

from nethelpers import make_pair
from test_net_tcp import establish


def _is_data_segment(packet_bytes: bytes) -> bool:
    """Heuristic for the direct wire: only data segments carry a payload
    big enough to push the IP packet past headers-only size."""
    return len(packet_bytes) > 200


@contextmanager
def spy_on(name, hook):
    """Wrap ``Tcb.<name>`` so ``hook(self, orig, *args)`` replaces each call.

    Tcb is slotted (no per-instance method override), so spying happens
    at class level; hooks filter on ``self`` to watch one connection.
    """
    orig = getattr(Tcb, name)

    def wrapper(self, *args):
        return hook(self, orig, *args)
    setattr(Tcb, name, wrapper)
    try:
        yield
    finally:
        setattr(Tcb, name, orig)


class TestRtoBackoff:
    def test_backoff_doubles_to_ceiling_then_gives_up(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        resets = []
        client.on_reset = lambda: resets.append(True)
        wire.drop_filter = lambda pkt, nh: True  # black hole

        rtos = []

        def spy(tcb, orig):
            if tcb is client:
                rtos.append(tcb.rto)
            orig(tcb)

        with spy_on("_retransmit_one", spy):
            a.run_kernel(lambda: client.send(bytes(512)))
            engine.run()

        # Gave up after the full backoff schedule, signalling the app.
        assert resets == [True]
        assert client.state == TcpState.CLOSED
        assert len(rtos) == client.MAX_RETRANSMITS
        # Each timeout doubles the RTO, saturating at the ceiling.
        for earlier, later in zip(rtos, rtos[1:]):
            assert later == min(earlier * 2, client.MAX_RTO_US)
        assert rtos[-1] == client.MAX_RTO_US

    def test_backoff_resets_after_recovery(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        # Drop the first two copies of the first data segment, then heal.
        state = {"drops": 0}

        def drop_twice(pkt, nh):
            if nh == b.my_ip and _is_data_segment(pkt) and state["drops"] < 2:
                state["drops"] += 1
                return True
            return False
        wire.drop_filter = drop_twice

        a.run_kernel(lambda: client.send(bytes(512)))
        engine.run()
        assert state["drops"] == 2
        assert client.retransmits == 2
        # The ack of the third copy cleared the consecutive-timeout count.
        assert client._rexmt_shift == 0
        assert client.state == TcpState.ESTABLISHED


class TestKarn:
    def test_no_rtt_sample_from_retransmitted_segment(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)

        samples = []

        def spy(tcb, orig, sample_us):
            if tcb is client:
                samples.append(sample_us)
            orig(tcb, sample_us)

        dropped = []

        def drop_first_data(pkt, nh):
            if nh == b.my_ip and _is_data_segment(pkt) and not dropped:
                dropped.append(pkt)
                return True
            return False
        wire.drop_filter = drop_first_data

        srtt_before = client.srtt
        assert srtt_before is not None  # handshake took a sample

        with spy_on("_update_rtt", spy):
            a.run_kernel(lambda: client.send(bytes(512)))
            engine.run()
            # The segment was retransmitted, so its ack is ambiguous:
            # Karn's rule forbids sampling it.
            assert dropped and client.retransmits == 1
            assert samples == []
            assert client.srtt == srtt_before

            # A clean (never-retransmitted) segment resumes sampling.
            wire.drop_filter = None
            a.run_kernel(lambda: client.send(bytes(512)))
            engine.run()
            assert len(samples) == 1

    def test_timeout_clears_rtt_sequence(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        wire.drop_filter = lambda pkt, nh: nh == b.my_ip and _is_data_segment(pkt)
        a.run_kernel(lambda: client.send(bytes(512)))
        # Run just long enough for one retransmit timeout.
        engine.run(until=engine.now + client.rto * 1.5)
        assert client.retransmits >= 1
        assert client._rtt_seq is None


class TestFastRecovery:
    def test_three_dupacks_trigger_fast_retransmit(self):
        engine, wire, a, b = make_pair()
        received = bytearray()
        client, server = establish(engine, a, b,
                                   server_received=received.extend)
        total = 32 * 1024
        state = {"data_segs": 0, "dropped": 0}

        def drop_sixth_data(pkt, nh):
            if nh == b.my_ip and _is_data_segment(pkt):
                state["data_segs"] += 1
                if state["data_segs"] == 6 and not state["dropped"]:
                    state["dropped"] += 1
                    return True
            return False
        wire.drop_filter = drop_sixth_data

        a.run_kernel(lambda: client.send(bytes(total)))
        engine.run()
        assert state["dropped"] == 1
        assert client.fast_retransmits == 1
        assert bytes(received) == bytes(total)

    def test_recovery_deflates_cwnd_to_ssthresh(self):
        engine, wire, a, b = make_pair()
        received = bytearray()
        client, server = establish(engine, a, b,
                                   server_received=received.extend)
        total = 32 * 1024
        state = {"data_segs": 0, "dropped": 0}

        def drop_sixth_data(pkt, nh):
            if nh == b.my_ip and _is_data_segment(pkt):
                state["data_segs"] += 1
                if state["data_segs"] == 6 and not state["dropped"]:
                    state["dropped"] += 1
                    return True
            return False
        wire.drop_filter = drop_sixth_data

        deflations = []
        inflated = []

        def spy(tcb, orig, *args):
            if tcb is not client:
                return orig(tcb, *args)
            in_recovery = tcb.dupacks >= 3
            if in_recovery:
                inflated.append(tcb.cwnd)
            orig(tcb, *args)
            if in_recovery and tcb.dupacks == 0:
                deflations.append((tcb.cwnd, tcb.ssthresh))

        with spy_on("_process_ack", spy):
            a.run_kernel(lambda: client.send(bytes(total)))
            engine.run()
        assert client.fast_retransmits == 1
        # While in recovery the window was inflated past ssthresh...
        assert inflated and max(inflated) >= client.ssthresh
        # ...and the ack of the recovery point deflated it exactly.
        assert deflations
        cwnd_after, ssthresh_after = deflations[0]
        assert cwnd_after == ssthresh_after
        assert bytes(received) == bytes(total)


class TestRetransmitCarriesOnlySentBytes:
    def test_lost_short_segment_with_a_nagle_held_tail(self):
        """A short segment is lost while Nagle holds a sub-MSS tail
        behind it.  The retransmission must resend only the bytes in
        flight: resending the tail too carries data past ``snd_nxt``, the
        peer ACKs it as data never sent, and the two ends trade pure ACKs
        until the sender gives up and resets."""
        engine, wire, a, b = make_pair()
        received = bytearray()
        client, server = establish(engine, a, b,
                                   server_received=received.extend)
        resets = []
        client.on_reset = lambda: resets.append(True)
        head = bytes(range(256)) + bytes(44)    # 300 B, one short segment
        tail = bytes(range(100))                # held back by Nagle
        dropped = []

        def drop_first_data(pkt, nh):
            if nh == b.my_ip and _is_data_segment(pkt) and not dropped:
                dropped.append(pkt)
                return True
            return False
        wire.drop_filter = drop_first_data

        def write_both():
            client.send(head)
            client.send(tail)
        a.run_kernel(write_both)
        engine.run()
        assert dropped and client.retransmits == 1
        assert bytes(received) == head + tail
        assert resets == [] and client.state == TcpState.ESTABLISHED
        assert client.snd_una == client.snd_nxt and not client.snd_buf
        # The lost head, its 300-byte copy, then the tail on its own.
        assert client.bytes_sent == 300 + 300 + 100


class TestHandshakeRetransmission:
    def test_lost_syn_ack_is_retransmitted_as_syn_ack(self):
        """A SYN_RCVD retransmit must resend the SYN|ACK, not data."""
        engine, wire, a, b = make_pair()
        state = {"to_client": 0}

        def drop_first_syn_ack(pkt, nh):
            if nh == a.my_ip:
                state["to_client"] += 1
                return state["to_client"] == 1
            return False
        wire.drop_filter = drop_first_syn_ack

        client, server = establish(engine, a, b)
        assert server.retransmits >= 1
        assert client.state == TcpState.ESTABLISHED
        assert server.state == TcpState.ESTABLISHED


# -- the sequence wrap ---------------------------------------------------------

_WRAP_TOTAL = 200 * 1024
_WRAP_DATA = bytes(range(251)) * (_WRAP_TOTAL // 251 + 1)
_MSS = 1460     # make_pair's 1500-byte MTU less 40


def _wrap_run(client_iss, server_iss, drop_at, reorder_at):
    """Send ``_WRAP_TOTAL`` bytes with the ``drop_at``-th data segment to
    the server lost and the ``reorder_at``-th delivered behind the next
    few.  ``None`` leaves an ISS where ``TcpProto.next_iss`` puts it.
    Returns what the run shows of itself."""
    engine, wire, a, b = make_pair()
    for proto, iss in ((a.tcp, client_iss), (b.tcp, server_iss)):
        if iss is not None:     # next_iss adds 64,000 before it returns
            proto._iss = (iss - 64_000) & 0xFFFFFFFF
    log = []
    seen = {"data": 0}

    def drop(pkt, nh):
        log.append((engine.now, len(pkt)))
        # A clean run carries ~250 frames; a sequence-arithmetic slip can
        # loop on output for 2**32 bytes.
        assert len(log) < 5000, "runaway: 5000 frames on the wire"
        if nh == b.my_ip and _is_data_segment(pkt):
            seen["data"] += 1
            return seen["data"] == drop_at
        return False

    def delay(pkt, nh):
        if nh == b.my_ip and _is_data_segment(pkt) and \
                seen["data"] == reorder_at:
            return 300.0
        return 0.0
    wire.drop_filter = drop
    wire.delay_filter = delay
    received = bytearray()
    client, server = establish(engine, a, b,
                               server_received=received.extend)
    resets = []
    client.on_reset = server.on_reset = lambda: resets.append(True)
    sent = [0]

    def pump(_space=None):
        if sent[0] < _WRAP_TOTAL:
            sent[0] += client.send(_WRAP_DATA[sent[0]:_WRAP_TOTAL])
    client.on_sendable = pump
    a.run_kernel(pump)
    engine.run()
    assert bytes(received) == _WRAP_DATA[:_WRAP_TOTAL]
    assert not resets and a.tcp.resets_sent == b.tcp.resets_sent == 0
    assert client.state is server.state is TcpState.ESTABLISHED
    for tcb in (client, server):
        assert tcb.snd_una == tcb.snd_nxt
    return (log, client.segments_sent, client.retransmits,
            client.fast_retransmits, server.segments_sent,
            (client.iss, server.iss))


@lru_cache(maxsize=None)
def _wrap_reference(drop_at, reorder_at):
    return _wrap_run(None, None, drop_at, reorder_at)


#: an ISS anywhere, or one from which the transfer crosses 2**32
_isses = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.integers(1, _WRAP_TOTAL + 2).map(lambda back: (1 << 32) - back))


class TestSequenceWrap:
    @given(client_iss=_isses, server_iss=_isses,
           reorder_at=st.integers(8, 60), gap=st.integers(10, 60))
    # Both SYNs take the last slot: data starts at 0.
    @example(client_iss=0xFFFFFFFF, server_iss=0xFFFFFFFF, reorder_at=9,
             gap=11)
    # The lost segment straddles 2**32.
    @example(client_iss=(1 << 32) - 20 * _MSS - 700, server_iss=0,
             reorder_at=12, gap=9)
    # The reordered segment straddles 2**32.
    @example(client_iss=(1 << 32) - 11 * _MSS - 700, server_iss=7,
             reorder_at=12, gap=18)
    # The signed boundary, 2**31 away.
    @example(client_iss=(1 << 31) - 1000, server_iss=1 << 31,
             reorder_at=20, gap=10)
    @settings(max_examples=25, deadline=None)
    def test_transfer_is_the_same_at_any_iss(self, client_iss, server_iss,
                                             reorder_at, gap):
        """A reordered segment, then a lost one: the data arrives
        byte-exact, nobody resets, both ends end with nothing in
        flight, and the run is the default-ISS run instant for instant:
        the same frames on the wire at the same times, and the same
        segments, retransmits and fast retransmits."""
        drop_at = reorder_at + gap
        *shown, isses = _wrap_run(client_iss, server_iss, drop_at,
                                  reorder_at)
        assert isses == (client_iss, server_iss)
        *expected, _ = _wrap_reference(drop_at, reorder_at)
        assert shown == expected
