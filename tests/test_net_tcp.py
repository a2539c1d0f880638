"""Tests for TCP: handshake, data flow, loss recovery, teardown.

The harness wires two stacks over a lossy direct wire, so loss injection
(and therefore retransmission, fast retransmit, and persist behaviour)
can be exercised deterministically.
"""

import sys
from collections import Counter

import pytest

from repro.bench.testbed import build_testbed
from repro.lang import VIEW
from repro.net.checksum import internet_checksum
from repro.net.headers import IPPROTO_TCP, TCP_HEADER, pseudo_header_sum
from repro.net.tcp import TcpState
from repro.net.tcp.tcb import SYN, seq_add, seq_lt, seq_sub

from nethelpers import make_pair, put_frame, tcp_datagram

PORT = 9000


def establish(engine, a, b, server_received=None):
    """Set up a listener on b, connect from a; returns (client, server) TCBs."""
    accepted = []

    def on_accept(tcb):
        accepted.append(tcb)
        if server_received is not None:
            tcb.on_data = server_received
    b.tcp.listen(PORT, on_accept)
    client_box = {}

    def connect():
        client_box["tcb"] = a.tcp.connect(b.my_ip, PORT)
    a.run_kernel(connect)
    engine.run()
    client = client_box["tcb"]
    assert accepted, "server never accepted"
    return client, accepted[0]


def client_send(engine, a, tcb, data):
    a.run_kernel(lambda: tcb.send(data))
    engine.run()


def intercept_send(engine, wire, a, tcb, data):
    """Send ``data`` but keep it off the wire; returns the IP packet.

    The wire goes on dropping (and the sender retransmitting) until the
    test clears ``wire.drop_filter``.
    """
    captured = []
    wire.drop_filter = (
        lambda packet, hop: captured.append(bytearray(packet)) or True)
    a.run_kernel(lambda: tcb.send(data))
    engine.run(until=engine.now + 500.0)
    return captured[0]


class TestSequenceArithmetic:
    def test_wraparound_lt(self):
        assert seq_lt(0xFFFFFFF0, 0x10)
        assert not seq_lt(0x10, 0xFFFFFFF0)

    def test_add_wraps(self):
        assert seq_add(0xFFFFFFFF, 1) == 0

    def test_sub_signed(self):
        assert seq_sub(5, 10) == -5
        assert seq_sub(0x5, 0xFFFFFFFB) == 10


class TestHandshake:
    def test_three_way_handshake(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        assert client.state == TcpState.ESTABLISHED
        assert server.state == TcpState.ESTABLISHED

    def test_handshake_is_three_segments(self):
        engine, wire, a, b = make_pair()
        establish(engine, a, b)
        # SYN, SYN|ACK, ACK.
        assert len(wire.sent) == 3

    def test_connect_to_closed_port_gets_rst(self):
        engine, wire, a, b = make_pair()
        resets = []

        def connect():
            tcb = a.tcp.connect(b.my_ip, PORT)
            tcb.on_reset = lambda: resets.append(True)
        a.run_kernel(connect)
        engine.run()
        assert resets == [True]
        assert b.tcp.no_listener == 1
        assert not a.tcp.connections

    def test_syn_retransmitted_when_lost(self):
        engine, wire, a, b = make_pair()
        counter = {"n": 0}

        def drop_first(data, hop):
            counter["n"] += 1
            return counter["n"] == 1
        wire.drop_filter = drop_first
        client, server = establish(engine, a, b)
        assert client.state == TcpState.ESTABLISHED
        assert client.retransmits >= 1

    def test_established_callback_fires(self):
        engine, wire, a, b = make_pair()
        events = []
        b.tcp.listen(PORT, lambda tcb: events.append("accepted"))

        def connect():
            tcb = a.tcp.connect(b.my_ip, PORT)
            tcb.on_established = lambda: events.append("established")
        a.run_kernel(connect)
        engine.run()
        assert sorted(events) == ["accepted", "established"]

    def test_backlog_limits_pending(self):
        engine, wire, a, b = make_pair()
        b.tcp.listen(PORT, lambda tcb: None, backlog=0)

        def connect():
            a.tcp.connect(b.my_ip, PORT)
        a.run_kernel(connect)
        engine.run(until=10_000.0)
        # SYN dropped by the full backlog; no connection forms promptly.
        assert not any(t.state == TcpState.ESTABLISHED
                       for t in b.tcp.connections.values())

    def test_duplicate_listen_rejected(self):
        engine, wire, a, b = make_pair()
        b.tcp.listen(PORT, lambda tcb: None)
        with pytest.raises(RuntimeError):
            b.tcp.listen(PORT, lambda tcb: None)


class TestDataTransfer:
    def test_small_payload_delivered(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        client_send(engine, a, client, b"hello tcp")
        assert b"".join(got) == b"hello tcp"

    def test_bulk_transfer_integrity(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        payload = bytes(range(256)) * 200  # 51200 bytes, many segments
        client_send(engine, a, client, payload)
        assert b"".join(got) == payload

    def test_segments_respect_mss(self):
        engine, wire, a, b = make_pair(mtu=600)
        got = []
        client, server = establish(engine, a, b, got.append)
        client_send(engine, a, client, bytes(5000))
        mss = a.tcp.default_mss
        data_lens = [len(p) - 40 for _s, p, _h in wire.sent if len(p) > 40]
        assert max(data_lens) <= mss
        assert b"".join(got) == bytes(5000)

    def test_bidirectional_transfer(self):
        engine, wire, a, b = make_pair()
        to_server, to_client = [], []
        client, server = establish(engine, a, b, to_server.append)
        client.on_data = to_client.append
        client_send(engine, a, client, b"ping from client")
        b.run_kernel(lambda: server.send(b"pong from server"))
        engine.run()
        assert b"".join(to_server) == b"ping from client"
        assert b"".join(to_client) == b"pong from server"

    def test_send_buffer_limit_respected(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        box = {}

        def overfill():
            box["accepted"] = client.send(bytes(client.snd_buf_limit * 2))
        a.run_kernel(overfill)
        engine.run()
        assert box["accepted"] <= client.snd_buf_limit

    def test_on_sendable_fires_as_acks_arrive(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        space_events = []
        client.on_sendable = space_events.append
        client_send(engine, a, client, bytes(50_000))
        assert space_events  # ACKs freed buffer space
        assert client.send_space == client.snd_buf_limit

    def test_corrupt_segment_dropped(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        packet = intercept_send(engine, wire, a, client, b"garble me")
        packet[-1] ^= 0xFF

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        b.run_kernel(misdeliver)
        engine.run(until=engine.now + 1000.0)
        assert got == []
        assert b.tcp.checksum_errors == 1
        # Quiesce: the retransmission machinery is still trying.
        a.run_kernel(client.abort)
        b.run_kernel(server.abort)
        engine.run(until=engine.now + 1000.0)

    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_padded_segment_is_not_a_checksum_error(self, os_name):
        """A bare SYN fills a 54-byte frame, which the Ethernet minimum
        pads with 6 zeros: the segment is the IP datagram's bytes only,
        so it is read, and answered with a RST (no listener)."""
        bed = build_testbed(os_name, "ethernet")
        put_frame(bed, tcp_datagram(bed.ip(0), bed.ip(1), 40000, 9, SYN))
        tcp = bed.stacks[1].tcp
        assert (tcp.checksum_errors, tcp.segments_in, tcp.no_listener,
                tcp.resets_sent) == (0, 1, 1, 1)

    @pytest.mark.parametrize("words", [0, 4, 15])
    def test_bad_data_offset_dropped(self, words):
        """A checksum-valid segment whose data offset is under five words,
        or beyond the 29 bytes it holds, is malformed (RFC 793): no header
        byte may reach the application as data."""
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        packet = intercept_send(engine, wire, a, client, b"garble me")
        segment = packet[20:]
        assert len(segment) == 29
        segment[12] = (words << 4) | (segment[12] & 0x0F)
        segment[16:18] = b"\x00\x00"
        segment[16:18] = internet_checksum(
            segment, initial=pseudo_header_sum(
                a.my_ip, b.my_ip, IPPROTO_TCP, len(segment))).to_bytes(2, "big")
        packet[20:] = segment

        def misdeliver():
            b.ip.input(b.host.mbufs.from_bytes(bytes(packet)), 0)
        segments_in = b.tcp.segments_in
        b.run_kernel(misdeliver)
        engine.run(until=engine.now + 100.0)
        assert got == []
        assert b.tcp.header_errors == 1
        assert b.tcp.checksum_errors == 0
        assert b.tcp.segments_in == segments_in
        assert server.state == TcpState.ESTABLISHED
        # The connection is untouched: the retransmission gets through.
        wire.drop_filter = None
        engine.run()
        assert got == [b"garble me"]


class TestLossRecovery:
    def test_lost_data_segment_retransmitted(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        state = {"dropped": False}

        def drop_first_data(data, hop):
            if not state["dropped"] and len(data) > 40:
                state["dropped"] = True
                return True
            return False
        wire.drop_filter = drop_first_data
        client_send(engine, a, client, b"must arrive")
        assert b"".join(got) == b"must arrive"
        assert client.retransmits >= 1

    def test_fast_retransmit_on_dupacks(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        # Open the congestion window so several segments fly at once.
        client.cwnd = 64 * 1024
        state = {"dropped": False}

        def drop_first_data(data, hop):
            if not state["dropped"] and len(data) > 60:
                state["dropped"] = True
                return True
            return False
        wire.drop_filter = drop_first_data
        payload = bytes(20_000)
        client_send(engine, a, client, payload)
        assert b"".join(got) == payload
        assert client.fast_retransmits >= 1

    def test_out_of_order_reassembled(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        client.cwnd = 64 * 1024
        state = {"held": None}

        # Hold the first data segment, release it after the second.
        def reorder(data, hop):
            if len(data) > 60 and state["held"] is None:
                state["held"] = data
                return True
            return False
        wire.drop_filter = reorder
        payload = bytes(range(256)) * 30
        a.run_kernel(lambda: client.send(payload))
        engine.run(until=engine.now + 2000.0)
        wire.drop_filter = None
        held = state["held"]

        def redeliver():
            b.ip.input(b.host.mbufs.from_bytes(held), 0)
        b.run_kernel(redeliver)
        engine.run()
        assert b"".join(got) == payload

    def test_rto_backs_off(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        wire.drop_filter = lambda data, hop: True  # black hole
        a.run_kernel(lambda: client.send(b"into the void"))
        engine.run(until=engine.now + 50_000.0)
        assert client.retransmits >= 2
        assert client.rto > client.MIN_RTO_US

    def test_rtt_estimation_converges(self):
        engine, wire, a, b = make_pair(delay_us=200.0)
        got = []
        client, server = establish(engine, a, b, got.append)
        for _ in range(5):
            client_send(engine, a, client, bytes(500))
        assert client.srtt is not None
        # One-way delay 200us -> RTT ~400us plus processing.
        assert 300.0 < client.srtt < 2000.0


class TestFlowControl:
    def test_receiver_window_limits_sender(self):
        engine, wire, a, b = make_pair()
        received = []

        def slow_consumer(tcb):
            tcb.auto_consume = False
            tcb.on_data = received.append
        accepted = []

        def on_accept(tcb):
            accepted.append(tcb)
            slow_consumer(tcb)
        b.tcp.listen(PORT, on_accept)
        a.run_kernel(lambda: a.tcp.connect(b.my_ip, PORT))
        engine.run()
        client = next(iter(a.tcp.connections.values()))
        server = accepted[0]
        payload = bytes(200_000)  # far beyond the 64K receive buffer

        def pump():
            sent = {"n": 0}

            def fill(_space=None):
                while sent["n"] < len(payload):
                    accepted_n = client.send(payload[sent["n"]:sent["n"] + 8192])
                    sent["n"] += accepted_n
                    if accepted_n == 0:
                        break
            client.on_sendable = fill
            fill()
        a.run_kernel(pump)
        engine.run(until=engine.now + 500_000.0)
        # The never-draining receiver caps delivery near its buffer size.
        delivered = sum(len(chunk) for chunk in received)
        assert delivered <= server.rcv_buf_limit
        assert delivered >= server.rcv_buf_limit // 2

        # Draining reopens the window and the rest flows.
        def drain():
            server.app_consumed(server.delivered_unconsumed)
        for _ in range(40):
            b.run_kernel(drain)
            engine.run(until=engine.now + 100_000.0)
        assert sum(len(chunk) for chunk in received) == len(payload)

    def test_zero_window_probe(self):
        engine, wire, a, b = make_pair()
        accepted = []

        def on_accept(tcb):
            tcb.auto_consume = False
            tcb.on_data = lambda data: None
            accepted.append(tcb)
        b.tcp.listen(PORT, on_accept)
        a.run_kernel(lambda: a.tcp.connect(b.my_ip, PORT))
        engine.run()
        client = next(iter(a.tcp.connections.values()))
        payload = bytes(80_000)

        def pump():
            sent = {"n": 0}

            def fill(_space=None):
                while sent["n"] < len(payload):
                    n = client.send(payload[sent["n"]:sent["n"] + 8192])
                    sent["n"] += n
                    if n == 0:
                        break
            client.on_sendable = fill
            fill()
        a.run_kernel(pump)
        engine.run(until=engine.now + 100_000.0)
        before = len(wire.sent)
        engine.run(until=engine.now + 50_000.0)
        # Persist probes keep poking the zero window.
        assert len(wire.sent) > before
        assert client._probe_pending or client.snd_wnd == 0


class TestCongestionControl:
    def test_slow_start_grows_cwnd(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)
        initial = client.cwnd
        client_send(engine, a, client, bytes(30_000))
        assert client.cwnd > initial

    def test_loss_shrinks_cwnd(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        client.cwnd = 32 * 1024
        wire.drop_filter = lambda data, hop: len(data) > 60
        a.run_kernel(lambda: client.send(bytes(10_000)))
        engine.run(until=engine.now + 20_000.0)
        wire.drop_filter = None
        assert client.cwnd < 32 * 1024
        engine.run()


class TestTeardown:
    def test_orderly_close_reaches_closed_and_time_wait(self):
        engine, wire, a, b = make_pair()
        closed = []
        client, server = establish(engine, a, b)
        server.on_close = lambda: closed.append("server")
        a.run_kernel(client.close)
        engine.run(until=engine.now + 100_000.0)
        assert closed == ["server"]
        assert client.state == TcpState.FIN_WAIT_2
        b.run_kernel(server.close)
        engine.run(until=engine.now + 100_000.0)
        assert server.state == TcpState.CLOSED
        assert client.state == TcpState.TIME_WAIT
        engine.run()  # let 2*MSL expire
        assert client.state == TcpState.CLOSED

    def test_data_before_fin_all_delivered(self):
        engine, wire, a, b = make_pair()
        got = []
        client, server = establish(engine, a, b, got.append)

        def send_and_close():
            client.send(b"last words")
            client.close()
        a.run_kernel(send_and_close)
        engine.run(until=engine.now + 100_000.0)
        assert b"".join(got) == b"last words"
        assert server.state == TcpState.CLOSE_WAIT

    def test_abort_sends_rst(self):
        engine, wire, a, b = make_pair()
        resets = []
        client, server = establish(engine, a, b)
        server.on_reset = lambda: resets.append(True)
        a.run_kernel(client.abort)
        engine.run()
        assert resets == [True]
        assert client.state == TcpState.CLOSED
        assert server.state == TcpState.CLOSED

    def test_connections_forgotten_after_close(self):
        engine, wire, a, b = make_pair()
        client, server = establish(engine, a, b)
        a.run_kernel(client.abort)
        engine.run()
        assert not a.tcp.connections
        assert not b.tcp.connections


class TestDemux:
    def test_two_connections_same_port_pair_hosts(self):
        engine, wire, a, b = make_pair()
        streams = {}

        def on_accept(tcb):
            streams[tcb.rport] = []
            tcb.on_data = streams[tcb.rport].append
        b.tcp.listen(PORT, on_accept)
        tcbs = {}

        def connect_two():
            tcbs["one"] = a.tcp.connect(b.my_ip, PORT)
            tcbs["two"] = a.tcp.connect(b.my_ip, PORT)
        a.run_kernel(connect_two)
        engine.run()
        client_send(engine, a, tcbs["one"], b"stream-one")
        client_send(engine, a, tcbs["two"], b"stream-two")
        assert b"".join(streams[tcbs["one"].lport]) == b"stream-one"
        assert b"".join(streams[tcbs["two"].lport]) == b"stream-two"

    def test_ephemeral_ports_unique(self):
        engine, wire, a, b = make_pair()
        b.tcp.listen(PORT, lambda tcb: None)
        ports = set()

        def connect_many():
            for _ in range(10):
                ports.add(a.tcp.connect(b.my_ip, PORT).lport)
        a.run_kernel(connect_many)
        engine.run()
        assert len(ports) == 10

    def test_stray_ack_gets_rst(self):
        engine, wire, a, b = make_pair()
        # Build a fake in-window ACK segment to a port with no listener.
        from repro.net.checksum import internet_checksum
        from repro.net.headers import pseudo_header
        header = bytearray(20)
        view = VIEW(header, TCP_HEADER)
        view.src_port = 1234
        view.dst_port = 4321
        view.seq = 100
        view.ack = 200
        view.off_flags = (5 << 12) | 0x10  # ACK
        pseudo = pseudo_header(a.my_ip, b.my_ip, IPPROTO_TCP, 20)
        view.checksum = internet_checksum(pseudo + bytes(header))

        def deliver():
            b.tcp.input(b.host.mbufs.from_bytes(bytes(header)), 0,
                        a.my_ip, b.my_ip)
        b.run_kernel(deliver)
        engine.run()
        assert b.tcp.resets_sent == 1


# -- the per-segment call budget ---------------------------------------------

#: a segment's way in, down to the TCB's handler for its state
_SEGMENT_IN = ["TcpProto.input", "TcpSegment.__init__", "Tcb.input",
               "Tcb._input_synchronized"]
#: one data segment out
_SEGMENT_OUT = ["Tcb._send_data", "TcpProto.send_segment"]


def _tcp_calls_per_input(engine, a, b, client, total):
    """Send ``total`` bytes; for each ``TcpProto.input`` call, whether it
    ran on the receiver, and the Python functions under ``repro/net/tcp``
    it called, by qualified name (itself first)."""
    inputs = []
    entered = []

    def on_event(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            if not entered and code.co_qualname == "TcpProto.input":
                entered.append(frame)
                inputs.append((frame.f_locals["self"] is b.tcp,
                               [code.co_qualname]))
            elif entered and "/repro/net/tcp/" in code.co_filename:
                inputs[-1][1].append(code.co_qualname)
        elif event == "return" and entered and frame is entered[0]:
            entered.pop()
    a.run_kernel(lambda: client.send(bytes(total)))
    sys.setprofile(on_event)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
    return inputs


class TestCallBudget:
    def test_steady_segments_call_no_helpers(self):
        """Every Python call a segment makes in TCP, from
        ``TcpProto.input`` down, on a clean steady transfer.  An in-order
        data segment is seven calls, ten when it is the second of a pair
        and sends the ACK; a pure ACK is six, plus ``_update_rtt``
        when it takes an RTT sample and two per segment it lets out.
        Sequence arithmetic, window arithmetic, timer arming and
        cancelling and the ``copy`` charge are inline, and a data
        segment with nothing new in its ACK skips ``_process_ack``.  With
        the ``seq_*``, window and timer helpers called, an in-order data
        segment made 16 calls (20 with the ACK) and a pure ACK that let
        nothing out 18 to 22."""
        engine, wire, a, b = make_pair()
        client, _server = establish(engine, a, b,
                                    server_received=lambda data: None)
        inputs = _tcp_calls_per_input(engine, a, b, client, 60 * 1024)
        data = Counter(tuple(calls) for on_receiver, calls in inputs
                       if on_receiver)
        assert set(data) == {
            tuple(_SEGMENT_IN + ["Tcb._process_data", "Tcb._deliver",
                                 "Tcb._output"]),
            tuple(_SEGMENT_IN + ["Tcb._process_data", "Tcb._deliver",
                                 "Tcb._send_ack"] + _SEGMENT_OUT
                  + ["Tcb._output"])}
        acks = [calls for on_receiver, calls in inputs if not on_receiver]
        sent = 0
        for calls in acks:
            head = _SEGMENT_IN + ["Tcb._process_ack"]
            if calls[len(head):len(head) + 1] == ["Tcb._update_rtt"]:
                head = head + ["Tcb._update_rtt"]
            segments = (len(calls) - len(head) - 1) // len(_SEGMENT_OUT)
            assert calls == head + ["Tcb._output"] + _SEGMENT_OUT * segments
            sent += segments
        assert ["Tcb._update_rtt"] in [calls[5:6] for calls in acks]
        assert sent
