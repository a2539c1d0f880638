"""Two real TCBs in lockstep with an RFC 793 reference model.

A hypothesis ``RuleBasedStateMachine`` runs one connection over
``nethelpers.make_pair``.  The wire is a queue: every segment either
host sends waits in it until a rule delivers, drops, duplicates,
reorders or corrupts it.  The hosts' timers never fire on their own: a
rule fires an armed retransmit or delayed-ACK timer.  Other rules make
the user calls (open, send, close, abort).  Each step runs one host, and
``tcp_model`` (which knows nothing of ``repro.net.tcp``) judges it:

* the acting endpoint's new state is one the model allows for its old
  state and the event, and the other endpoint's state is unchanged;
* the endpoint sent the reply the model requires (an ACK for a segment
  outside the window, a RST for a segment to a closed port, ...);
* ``snd_una <= snd_nxt <= snd_una + window`` in sequence space, where the
  window is the largest the peer advertised (one more for a probe);
* an endpoint never receives past what its peer counts as sent;
* the bytes each side delivered are a prefix of what the other sent.

At the end both sides are closed, the wire runs clean and the timers
fire until nothing is left to do: both endpoints must be in CLOSED or
TIME_WAIT, and unless a RST or a give-up ended the connection, each
stream arrived byte for byte.  The initial sequence numbers are drawn,
near 2**32 too (within a stream's length, or so close that the handshake
and close cross it), so a connection can cross the wrap.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

import tcp_model as model
from nethelpers import make_pair
from repro.net.headers import TCP_HEADER

PORT = 7000
#: bytes each side sends at most: the flight stays far below the window
STREAM_CAP = 12 * 1024
MOD = 1 << 32


class _HeldTimer:
    """A timer that fires only when a rule fires it."""

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


def _hold_timers(host):
    def set_timer(delay_us, fn, args=(), priority=None, name="timer"):
        return _HeldTimer(fn, args)
    host.set_timer = set_timer


def _segment(packet):
    """``(flags, seq, ack, window, data)`` of the TCP segment in an IP
    datagram."""
    tcp = packet[(packet[0] & 0x0F) * 4:]
    _sp, _dp, seq, ack, off_flags, window, _ck, _urg = \
        TCP_HEADER.unpack_from(tcp, 0)
    return off_flags & 0x3F, seq, ack, window, tcp[(off_flags >> 12) * 4:]


class _Side:
    def __init__(self, name, stack, seed):
        self.name = name
        self.stack = stack
        self.seed = seed
        self.tcb = None
        self.listener = None
        self.sent = bytearray()       # accepted by send()
        self.received = bytearray()   # delivered by on_data
        self.emitted = []             # segments sent in the current step
        self.iss = None               # from the wire: its SYN
        self.fin_seq = None           # from the wire: its FIN
        self.snd_max = None           # highest sequence number on the wire
        self.advertised = 0           # window in its last ACK-bearing segment
        self.max_advertised = 0
        self.user_closed = False
        self.ack_owed = False

    @property
    def state(self):
        if self.tcb is not None:
            return self.tcb.state.value
        return model.LISTEN if self.listener is not None and \
            not self.listener.closed else model.CLOSED

    def note(self, flags, seq, ack, window, data):
        """Book a segment this side put on the wire."""
        self.emitted.append((flags, seq, ack, window, len(data)))
        if flags & model.RST:
            return
        if flags & model.SYN:
            self.iss = seq
        end = (seq + len(data) + (1 if flags & (model.SYN | model.FIN)
                                  else 0)) % MOD
        if self.snd_max is None or model.seq_lt(self.snd_max, end):
            self.snd_max = end
        if flags & model.FIN:
            self.fin_seq = (seq + len(data)) % MOD
        if flags & model.ACK:
            self.advertised = window
            self.max_advertised = max(self.max_advertised, window)
            self.ack_owed = False


class TcpLockstep(RuleBasedStateMachine):
    @initialize(iss=st.tuples(*[st.one_of(
        st.none(), st.integers(0, MOD - 1), st.integers(MOD - 2_048, MOD - 1),
        st.integers(MOD - 3, MOD - 1))] * 2), first=st.integers(0, 6000))
    def start(self, iss, first):
        """The server listens, the client opens and queues ``first``
        bytes before the handshake completes."""
        self.engine, wire, a, b = make_pair()
        self.client = _Side("client", a, 0x11)
        self.server = _Side("server", b, 0x5A)
        self.wire = []                # (receiving side, packet bytes)
        self.reset = False            # a RST or a give-up ended it
        by_stack = {a: self.client, b: self.server}

        def carry(sender, packet, next_hop):
            side = by_stack[sender]
            side.note(*_segment(packet))
            self.wire.append((self._peer(side), packet))
        wire.carry = carry
        for side, side_iss in zip((self.client, self.server), iss):
            _hold_timers(side.stack.host)
            if side_iss is not None:    # next_iss adds 64,000 first
                side.stack.tcp._iss = (side_iss - 64_000) % MOD
        self.server.listener = self._kernel(
            self.server, lambda: b.tcp.listen(PORT, lambda tcb: None))
        self._open()
        self._send(self.client, first)

    # -- plumbing --------------------------------------------------------

    def _peer(self, side):
        return self.server if side is self.client else self.client

    def _kernel(self, side, fn):
        out = []
        side.stack.run_kernel(lambda: out.append(fn()))
        self.engine.run()
        return out[0] if out else None

    def _adopt(self, tcb, side):
        side.tcb = tcb
        tcb.on_data = side.received.extend
        tcb.on_reset = self._on_reset

    def _on_reset(self):
        self.reset = True

    def _step(self, side, event, action, **facts):
        """Run ``action`` on ``side``'s host and judge it by the model."""
        other = self._peer(side)
        before, other_before = side.state, other.state
        for s in (side, other):
            s.emitted = []
        allowed, reply = model.step(before, event, user_closed=side.user_closed
                                    and before == model.SYN_RCVD, **facts)
        self._kernel(side, action)
        if side is self.server and side.tcb is None and \
                side.stack.tcp.connections:
            # The listener's child: one connection per run.
            [child] = side.stack.tcp.connections.values()
            self._adopt(child, side)
            side.listener.close()
        after = side.state
        where = "%s %s + %s" % (side.name, before, event)
        assert after in allowed, "%s -> %s, model allows %s" % (
            where, after, sorted(allowed))
        assert other.state == other_before, where
        assert not other.emitted, where
        if not (event == model.E_REXMT and after == model.CLOSED):
            # (a retransmit timer that gives up owes no reply)
            assert model.replied(reply, side.emitted), \
                "%s: no %s among %s" % (where, reply, side.emitted)
        if any(flags & model.RST for flags, *_ in side.emitted):
            self.reset = True

    def _deliver(self, side, packet):
        flags, seq, ack, _window, data = _segment(packet)
        state = side.state
        tcb = side.tcb
        rcv_nxt = tcb.rcv_nxt if tcb is not None else 0
        event = model.classify(
            state, flags, seq, ack, len(data), rcv_nxt=rcv_nxt,
            rcv_wnd=side.advertised, snd_max=side.snd_max)
        in_order = event in (model.E_DATA_IN, model.E_FIN) and \
            model.seq_le(seq, rcv_nxt) and data
        facts = dict(acks_syn=model.acks(flags, ack, side.iss),
                     acks_fin=model.acks(flags, ack, side.fin_seq))
        if state == model.SYN_SENT:     # only SND.NXT is acceptable
            facts["acks_syn"] = bool(flags & model.ACK) and \
                ack == (side.iss + 1) % MOD
        stack = side.stack
        self._step(side, event, lambda: stack.ip.input(
            stack.host.mbufs.from_bytes(packet), 0), **facts)
        if in_order and not any(f & model.ACK for f, *_ in side.emitted):
            side.ack_owed = True

    def _pick(self, index):
        return self.wire.pop(index % len(self.wire))

    # -- the wire ----------------------------------------------------------

    @precondition(lambda self: self.wire)
    @rule(index=st.one_of(st.just(0), st.integers(0, 7)),
          count=st.integers(1, 4))
    def deliver(self, index, count):
        """``count`` segments from the head of the queue, or from a later
        one (reordering)."""
        for _ in range(count):
            if self.wire:
                self._deliver(*self._pick(index))
                index = 0

    @precondition(lambda self: self.wire)
    @rule(kind=st.sampled_from(["drop", "duplicate", "corrupt"]),
          index=st.integers(0, 7), bit=st.integers(0, 1 << 16))
    def impair(self, kind, index, bit):
        if kind == "duplicate":
            self.wire.append(self.wire[index % len(self.wire)])
            return
        side, packet = self._pick(index)
        if kind == "drop":
            return
        # One bit of the segment flipped: the checksum drops it, and
        # nothing else happens.
        start = (packet[0] & 0x0F) * 4
        bit %= 8 * (len(packet) - start)
        flipped = bytearray(packet)
        flipped[start + bit // 8] ^= 0x80 >> (bit % 8)
        tcp = side.stack.tcp
        errors, state = tcp.checksum_errors, side.state
        side.emitted = []
        self._kernel(side, lambda: side.stack.ip.input(
            side.stack.host.mbufs.from_bytes(bytes(flipped)), 0))
        assert (tcp.checksum_errors, side.state) == (errors + 1, state)
        assert not side.emitted

    # -- the user ----------------------------------------------------------

    def _open(self):
        a, b = self.client.stack, self.server.stack
        self._step(self.client, model.E_OPEN, lambda: self._adopt(
            a.tcp.connect(b.my_ip, PORT), self.client))

    @rule(to_server=st.booleans(), size=st.integers(1, 3000))
    def send(self, to_server, size):
        self._send(self.client if to_server else self.server, size)

    def _send(self, side, size):
        writable = (model.SYN_SENT, model.SYN_RCVD, model.ESTABLISHED,
                    model.CLOSE_WAIT)
        if not size or side.state not in writable or \
                len(side.sent) + size > STREAM_CAP:
            return
        start = len(side.sent)
        data = bytes((side.seed + 7 * i + (i >> 8)) & 0xFF
                     for i in range(start, start + size))
        accepted = []
        self._step(side, model.E_SEND,
                   lambda: accepted.append(side.tcb.send(data)))
        side.sent += data[:accepted[0]]

    @rule(client=st.booleans(), roll=st.integers(0, 3))
    def close(self, client, roll):
        """One draw in four, and not in SYN_SENT (which would only
        abandon the connection)."""
        side = self.client if client else self.server
        if not roll and side.state != model.SYN_SENT:
            self._close(side)

    def _close(self, side):
        if side.tcb is None:
            if side.listener is None or side.listener.closed:
                return
            self._step(side, model.E_CLOSE, side.listener.close)
            return
        if side.state == model.SYN_SENT:
            self.reset = True           # the connection never opens
        side.user_closed = True
        self._step(side, model.E_CLOSE, side.tcb.close)

    @rule(client=st.booleans(), roll=st.sampled_from([False] * 15 + [True]))
    def abort(self, client, roll):
        """One draw in sixteen: most runs should get as far as a close."""
        side = self.client if client else self.server
        if not roll or side.tcb is None:
            return
        self._step(side, model.E_ABORT, side.tcb.abort)
        self.reset = True

    # -- the timers ----------------------------------------------------------

    @rule(client=st.booleans(), delack=st.booleans())
    def fire(self, client, delack):
        self._fire(self.client if client else self.server, delack)

    def _fire(self, side, delack):
        tcb = side.tcb
        timer = tcb and (tcb._delack_timer if delack else tcb._rexmt_timer)
        if timer is None or timer.cancelled:
            return False
        timer.cancel()
        if delack:
            facts = dict(ack_owed=side.ack_owed)
        else:
            facts = dict(outstanding=tcb.snd_una != tcb.snd_nxt)
        self._step(side, model.E_DELACK if delack else model.E_REXMT,
                   lambda: timer.fn(*timer.args), **facts)
        return True

    # -- invariants ----------------------------------------------------------

    @invariant()
    def windows_hold(self):
        for side in (self.client, self.server):
            tcb = side.tcb
            if tcb is None or side.state == model.CLOSED:
                continue
            flight = (tcb.snd_nxt - tcb.snd_una) % MOD
            window = max(self._peer(side).max_advertised, tcb.mss) + 1
            assert flight <= window, (side.name, flight, window)
            assert model.seq_le(tcb.snd_una, tcb.snd_nxt)

    @invariant()
    def nothing_received_unsent(self):
        for side in (self.client, self.server):
            peer = self._peer(side)
            if side.tcb is None or peer.tcb is None or \
                    side.state in (model.CLOSED, model.SYN_SENT) or \
                    peer.state == model.CLOSED:
                continue
            assert model.seq_le(side.tcb.rcv_nxt, peer.tcb.snd_nxt), (
                side.name, side.tcb.rcv_nxt, peer.tcb.snd_nxt)

    @invariant()
    def delivered_is_a_prefix(self):
        for side in (self.client, self.server):
            got = bytes(side.received)
            assert got == bytes(self._peer(side).sent[:len(got)]), side.name

    # -- the end -------------------------------------------------------------

    def teardown(self):
        if not hasattr(self, "client"):
            return
        for _ in range(200):        # a clean drain takes a few dozen
            if self.wire:
                side, packet = self.wire.pop(0)
                self._deliver(side, packet)
                if _segment(packet)[0] & (model.SYN | model.FIN):
                    # A SYN or FIN arrives twice, as its retransmission
                    # would: the handshake and the close must survive it.
                    self._deliver(side, packet)
                continue
            open_sides = [s for s in (self.client, self.server)
                          if s.state in (model.ESTABLISHED, model.CLOSE_WAIT)
                          and not s.user_closed]
            if open_sides:
                self._close(open_sides[0])
                continue
            if any(self._fire(s, delack) for s in (self.client, self.server)
                   for delack in (True, False)):
                continue
            if self.server.state == model.LISTEN:
                self._close(self.server)
                continue
            break
        states = (self.client.state, self.server.state)
        ended = {model.CLOSED, model.TIME_WAIT}
        if self.reset:
            # FIN_WAIT_2 has no timeout: an endpoint whose peer reset
            # while it waited for the peer's FIN, the RST lost, waits on.
            ended.add(model.FIN_WAIT_2)
        assert set(states) <= ended, states
        if not self.reset:
            for side in (self.client, self.server):
                assert bytes(side.received) == bytes(self._peer(side).sent), \
                    "%s received %d of %d bytes" % (
                        side.name, len(side.received),
                        len(self._peer(side).sent))


TestTcpLockstep = TcpLockstep.TestCase
TestTcpLockstep.settings = settings(max_examples=150, stateful_step_count=40,
                                    deadline=None)
