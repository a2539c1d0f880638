"""The TCP control block: state machine, windows, congestion control.

A faithful (if compact) TCP: three-way handshake, sliding window with
receiver flow control, slow start, congestion avoidance, fast retransmit
on three duplicate ACKs, RTO estimation (Jacobson/Karn), delayed ACKs,
zero-window probing, and the full close sequence including TIME_WAIT.

The paper's forwarding experiment (section 5.2) hinges on this being a
*real* protocol: the user-level splice forwarder breaks end-to-end TCP
semantics (window negotiation, slow start, connection teardown) precisely
because these mechanisms exist, while the in-kernel Plexus forwarder
preserves them by redirecting segments below the transport layer.

All TCB entry points are plain code: they must be called inside a kernel
execution context (a ``host.kernel_path``), and they charge their CPU
costs to it.  Timers re-enter through kernel paths of their own.

A segment takes one path.  Its methods do sequence and window arithmetic
inline, on locals (``seq_lt(a, b)`` is ``(a - b) & _MASK > _HALF``; the
flight is ``(snd_nxt - snd_una) & _MASK``, as ``snd_una`` never passes
``snd_nxt``), and arm or cancel timers and book charges in place, in the
helpers' order; the helpers serve the cold paths.  A data segment whose
ACK is ``snd_una`` skips ``_process_ack``, which would change nothing.
States are tested with ``is`` or tuple membership: ``Enum.__hash__`` is
Python code, so a set or dict keyed by state costs a call per probe.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from ...hw.cpu import OUTSIDE_PATH, ChargeError
from ..headers import IPPROTO_TCP, pseudo_header_sum

__all__ = ["Tcb", "TcpState", "TcpSegment"]

# Sequence-number modular arithmetic.
_MOD = 1 << 32
_MASK = _MOD - 1
_HALF = _MOD >> 1


def seq_lt(a: int, b: int) -> bool:
    return ((a - b) & _MASK) > _HALF


def seq_add(a: int, n: int) -> int:
    return (a + n) & _MASK


def seq_sub(a: int, b: int) -> int:
    """a - b interpreted as a small signed distance."""
    diff = (a - b) & _MASK
    if diff > _HALF:
        diff -= _MOD
    return diff


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


# The members as module constants, in definition order; then the states
# _input_synchronized serves, those _output sends in, and those the
# application may still write in.
(CLOSED, LISTEN, SYN_SENT, SYN_RCVD, ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2,
 CLOSE_WAIT, CLOSING, LAST_ACK, TIME_WAIT) = TcpState
_SYNCHRONIZED = (ESTABLISHED, SYN_RCVD, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT,
                 CLOSING, LAST_ACK)
_SENDING = (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK)
_WRITABLE = (ESTABLISHED, CLOSE_WAIT)


class TcpSegment:
    """A parsed inbound segment (protocol.py fills this in)."""

    __slots__ = ("seq", "ack", "flags", "window", "payload", "mss")

    def __init__(self, seq: int, ack: int, flags: int, window: int,
                 payload: bytes, mss: Optional[int] = None):
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload = payload
        self.mss = mss  # from the MSS option on SYN segments


# Flag bits (mirrors headers.py; duplicated to keep this module standalone).
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


class Tcb:
    """One TCP connection.

    ``__slots__`` because a host holds one per live connection, and the
    many-flow workloads keep a thousand in flight at once (the
    ``many_flows`` origin peaks at 1,000): the instance ``__dict__`` for
    ~50 attributes costs more than every buffer a quiet connection owns.
    """

    __slots__ = (
        "proto", "host", "laddr", "lport", "raddr", "rport", "state", "mss",
        # The pseudo-header's address and protocol words: a segment adds
        # its length.
        "pseudo_sum",
        # Send side.
        "iss", "snd_una", "snd_nxt", "snd_wnd", "snd_buf", "snd_buf_limit",
        "nodelay", "fin_queued", "fin_sent_seq",
        # Receive side.
        "rcv_nxt", "rcv_buf_limit", "delivered_unconsumed",
        "auto_consume", "_reass", "_segs_since_ack", "_fin_received",
        "_advertised_window",
        # Congestion control.
        "cwnd", "ssthresh", "dupacks",
        # RTT estimation.
        "srtt", "rttvar", "rto", "_rtt_seq", "_rtt_start", "_rexmt_shift",
        "_probe_pending",
        # Timers.
        "_rexmt_timer", "_delack_timer", "_persist_timer", "_timewait_timer",
        # Callbacks.
        "on_established", "on_data", "on_close", "on_reset", "on_sendable",
        # Statistics.
        "segments_sent", "bytes_sent", "retransmits", "fast_retransmits",
    )

    DEFAULT_BUF = 64 * 1024
    INITIAL_RTO_US = 50_000.0     # 50 ms before the first RTT sample
    MIN_RTO_US = 10_000.0         # floor: covers delayed ACKs on big-MTU paths
    MAX_RTO_US = 640_000.0
    MSL_US = 500_000.0            # TIME_WAIT = 2*MSL = 1 s simulated
    DELAYED_ACK_US = 1_000.0
    PERSIST_US = 5_000.0
    MAX_RETRANSMITS = 8           # consecutive timeouts before giving up

    def __init__(self, proto, laddr: int, lport: int, raddr: int, rport: int,
                 passive: bool = False):
        self.proto = proto
        self.host = proto.host
        self.laddr = laddr
        self.lport = lport
        self.raddr = raddr
        self.rport = rport
        self.state = LISTEN if passive else CLOSED
        self.mss = proto.default_mss
        self.pseudo_sum = pseudo_header_sum(laddr, raddr, IPPROTO_TCP, 0)

        # Send side.
        self.iss = proto.next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = self.mss  # until the peer advertises
        self.snd_buf = bytearray()
        self.snd_buf_limit = self.DEFAULT_BUF
        #: False = Nagle's algorithm (coalesce small writes while data is
        #: in flight); True = send immediately (TCP_NODELAY).
        self.nodelay = False
        self.fin_queued = False
        self.fin_sent_seq: Optional[int] = None

        # Receive side.
        self.rcv_nxt = 0
        self.rcv_buf_limit = self.DEFAULT_BUF
        self.delivered_unconsumed = 0
        self.auto_consume = True
        self._reass: Dict[int, bytes] = {}
        self._segs_since_ack = 0
        self._fin_received = False
        self._advertised_window = self.rcv_buf_limit

        # Congestion control (RFC 5681 shape).
        self.cwnd = 2 * self.mss
        self.ssthresh = 64 * 1024
        self.dupacks = 0

        # RTT estimation (Jacobson; Karn's rule via _rtt_seq).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.INITIAL_RTO_US
        self._rtt_seq: Optional[int] = None
        self._rtt_start = 0.0
        self._rexmt_shift = 0     # consecutive unanswered timeouts
        self._probe_pending = False  # a persist probe is in flight

        # Timers.
        self._rexmt_timer = None
        self._delack_timer = None
        self._persist_timer = None
        self._timewait_timer = None

        # Callbacks (invoked in kernel context).
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None
        self.on_sendable: Optional[Callable[[int], None]] = None

        # Statistics.
        self.segments_sent = 0
        self.bytes_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    # Public API (plain code; kernel context required)
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not CLOSED:
            raise RuntimeError("connect() in state %s" % self.state.value)
        self.state = SYN_SENT
        self._send_control(SYN, seq=self.iss)
        self.snd_nxt = seq_add(self.iss, 1)
        self._rtt_seq = self.iss
        self._rtt_start = self.host.engine.now
        self._arm_rexmt()

    def send(self, data: bytes) -> int:
        """Queue application data; returns the number of bytes accepted."""
        state = self.state
        if state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            raise RuntimeError("send() in state %s" % state.value)
        snd_buf = self.snd_buf
        space = self.snd_buf_limit - len(snd_buf)
        accepted = min(space, len(data))
        if accepted > 0:
            snd_buf += data[:accepted]
            # The copy into the send buffer; cpu.charge inlined (exact body).
            cpu = self.host.cpu
            if not cpu._stack:
                raise ChargeError(OUTSIDE_PATH)
            amount = accepted * self.host.costs.copy_per_byte
            cpu._stack[-1] += amount
            cpu.category_times["copy"] += amount
        if state in _WRITABLE:
            self._output()
        return accepted

    @property
    def send_space(self) -> int:
        return self.snd_buf_limit - len(self.snd_buf)

    def close(self) -> None:
        """Orderly release: FIN after all queued data."""
        state = self.state
        if state is CLOSED or state is TIME_WAIT:
            return
        if state is SYN_SENT:
            self._enter_closed()
            return
        self.fin_queued = True
        if state is ESTABLISHED:
            self.state = FIN_WAIT_1
        elif state is CLOSE_WAIT:
            self.state = LAST_ACK
        # RFC 793: close in SYN_RCVD also heads to FIN_WAIT_1, but only
        # once the handshake ACK arrives (_process_ack) -- until then the
        # SYN|ACK must stay the retransmittable segment at snd_una.
        self._output()

    def abort(self) -> None:
        """Hard reset."""
        if self.state is not CLOSED:
            self._send_control(RST | ACK, seq=self.snd_nxt)
        self._enter_closed(notify_reset=False)

    def app_consumed(self, nbytes: int) -> None:
        """The application drained ``nbytes``; may reopen the window.

        A window-update ACK is sent when the advertisable window has grown
        by at least two segments (or half the buffer) beyond what the peer
        last saw -- the classic BSD rule, which keeps a fast sender from
        stalling into persist probes while the receiver drains.
        """
        if nbytes < 0 or nbytes > self.delivered_unconsumed:
            raise ValueError("app_consumed(%d) with %d outstanding"
                             % (nbytes, self.delivered_unconsumed))
        self.delivered_unconsumed -= nbytes
        window = self._rcv_window()
        grown = window - self._advertised_window
        if grown >= min(2 * self.mss, self.rcv_buf_limit // 2) and \
                self.state in (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2):
            self._send_ack()

    # ------------------------------------------------------------------
    # Segment input (called by TcpProto with a parsed segment)
    # ------------------------------------------------------------------

    def input(self, seg: TcpSegment) -> None:
        if seg.flags & RST:
            self._handle_rst(seg)
            return
        state = self.state
        if state in _SYNCHRONIZED:  # ESTABLISHED is its first member
            self._input_synchronized(seg)
        elif state is SYN_SENT:
            self._input_syn_sent(seg)
        elif state is TIME_WAIT:
            self._input_time_wait(seg)

    def accept_syn(self, seg: TcpSegment) -> None:
        """Passive open: a listener routed a SYN to this new TCB."""
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_wnd = seg.window
        self._negotiate_mss(seg)
        self.state = SYN_RCVD
        self._send_control(SYN | ACK, seq=self.iss)
        self.snd_nxt = seq_add(self.iss, 1)
        self._rtt_seq = self.iss
        self._rtt_start = self.host.engine.now
        self._arm_rexmt()

    # -- state handlers -----------------------------------------------------

    def _handle_rst(self, seg: TcpSegment) -> None:
        # Accept only plausible RSTs (in-window or ACK of our SYN).
        if self.state is SYN_SENT:
            if not (seg.flags & ACK and seg.ack == self.snd_nxt):
                return
        self._enter_closed(notify_reset=True)

    def _input_syn_sent(self, seg: TcpSegment) -> None:
        if not (seg.flags & SYN):
            return
        if seg.flags & ACK and seg.ack != self.snd_nxt:
            self._send_control(RST, seq=seg.ack)
            return
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_wnd = seg.window
        self._negotiate_mss(seg)
        if seg.flags & ACK:
            self.snd_una = seg.ack
            if self._rtt_seq is not None and seq_lt(self._rtt_seq, seg.ack):
                self._update_rtt(self.host.engine.now - self._rtt_start)
                self._rtt_seq = None
            self.state = ESTABLISHED
            self._cancel_rexmt()
            self._send_ack()
            self._notify_established()
            self._output()
        else:
            # Simultaneous open.
            self.state = SYN_RCVD
            self._send_control(SYN | ACK, seq=self.iss)

    def _input_time_wait(self, seg: TcpSegment) -> None:
        # Re-ACK retransmitted FINs.
        if seg.flags & FIN:
            self._send_ack()

    def _input_synchronized(self, seg: TcpSegment) -> None:
        # -- sequence acceptability / trimming ---------------------------
        payload = seg.payload
        seq = seg.seq
        flags = seg.flags
        rcv_nxt = self.rcv_nxt
        if (seq - rcv_nxt) & _MASK > _HALF:     # seq_lt(seq, rcv_nxt)
            trim = (rcv_nxt - seq) & _MASK
            # A SYN consumes one sequence slot, so a retransmitted SYN|ACK
            # (handshake ACK lost in transit) is "entirely old" once that
            # slot is covered and must be re-ACKed, or the passive side
            # stays wedged in SYN_RCVD.
            old_span = len(payload) + (1 if flags & SYN else 0)
            if trim >= old_span and not (flags & FIN):
                # Entirely old: re-ACK (it may be a peer's liveness probe or
                # a duplicate) so the sender learns we are alive and caught up.
                self._send_ack()
                if not (flags & ACK):
                    return
                payload = b""
            else:
                payload = payload[trim:]
                seq = rcv_nxt

        # -- ACK processing ------------------------------------------------
        # A data segment whose ACK is snd_una is neither news nor a
        # duplicate ACK: _process_ack would return without a change.
        if flags & ACK and (seg.ack != self.snd_una or not seg.payload):
            self._process_ack(seg)
            if self.state is CLOSED:
                return

        # -- window update ---------------------------------------------------
        self.snd_wnd = seg.window
        if self._probe_pending and seg.window > 0:
            # The zero window opened: pull snd_nxt back over the probe
            # bytes so normal output resends cleanly from the left edge
            # (BSD's snd_nxt pullback after persist).
            self._probe_pending = False
            if self._persist_timer is not None:
                self._persist_timer.cancel()
                self._persist_timer = None
            if seq_lt(self.snd_una, self.snd_nxt):
                self.snd_nxt = max(self.snd_una, seg.ack,
                                   key=lambda v: seq_sub(v, self.snd_una))

        # -- data ----------------------------------------------------------
        if payload:
            self._process_data(seq, payload)

        # -- FIN ------------------------------------------------------------
        if flags & FIN:
            self._process_fin((seg.seq + len(seg.payload)) & _MASK)

        # Try to move queued data out (window may have opened); _output
        # returns at once outside the sending states.
        self._output()

    def _negotiate_mss(self, seg: TcpSegment) -> None:
        """Clamp our MSS to the peer's advertised maximum (RFC 879)."""
        if seg.mss is not None and seg.mss < self.mss:
            self.mss = max(64, seg.mss)
            # Congestion state is expressed in MSS units; re-base it.
            self.cwnd = min(self.cwnd, 2 * self.mss)

    # -- ACK machinery ---------------------------------------------------------

    def _process_ack(self, seg: TcpSegment) -> None:
        ack = seg.ack
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        if (snd_nxt - ack) & _MASK > _HALF:     # seq_lt(snd_nxt, ack)
            # ACK for data we never sent.
            self._send_ack()
            return
        acked = (ack - snd_una) & _MASK
        if acked == 0 or acked > _HALF:         # ack <= snd_una
            # Duplicate ACK?
            if acked == 0 and not seg.payload and \
                    not (seg.flags & (SYN | FIN)) and snd_nxt != snd_una:
                self.dupacks += 1
                if self.dupacks == 3:
                    self._fast_retransmit()
                elif self.dupacks > 3:
                    self.cwnd += self.mss  # fast recovery inflation
                    self._output()
            return

        # New data acknowledged.
        self._rexmt_shift = 0
        in_recovery = self.dupacks >= 3
        self.dupacks = 0

        # Handshake ACK consumes the SYN sequence slot.
        if self.state is SYN_RCVD:
            if self.fin_queued:
                # App closed while still in SYN_RCVD: complete the
                # handshake straight into FIN_WAIT_1 (no establishment
                # callback -- the app already hung up).
                self.state = FIN_WAIT_1
            else:
                self.state = ESTABLISHED
                self._notify_established()

        # Remove acked bytes from the send buffer (SYN/FIN occupy sequence
        # space but not buffer space).
        buffered_acked = acked
        if (snd_una - self.iss - 1) & _MASK > _HALF:   # snd_una < iss + 1
            buffered_acked -= 1  # the SYN
        fin_acked = self.fin_sent_seq is not None and \
            (self.fin_sent_seq - ack) & _MASK > _HALF
        if fin_acked:
            buffered_acked -= 1  # the FIN
        if buffered_acked > 0:
            del self.snd_buf[:buffered_acked]    # at most all of it
        self.snd_una = ack

        # RTT sampling (Karn: only segments never retransmitted).
        rtt_seq = self._rtt_seq
        if rtt_seq is not None and (rtt_seq - ack) & _MASK > _HALF:
            self._update_rtt(self.host.engine.now - self._rtt_start)
            self._rtt_seq = None

        # Congestion window growth.
        if in_recovery:
            self.cwnd = self.ssthresh  # deflate after recovery
        elif self.cwnd < self.ssthresh:
            self.cwnd += min(acked, self.mss)          # slow start
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)  # CA

        # Retransmission timer: cancelled once all is acked (snd_nxt
        # re-read: on_established may have sent), else restarted.
        if self._rexmt_timer is not None:
            self._rexmt_timer.cancel()
        self._rexmt_timer = None if ack == self.snd_nxt else \
            self.host.set_timer(self.rto, self._rexmt_fire, name="tcp-rexmt")

        # FIN progress.
        if fin_acked:
            self._fin_acked()

        # Tell the application there is room again.
        if self.on_sendable is not None and self.state in _WRITABLE and \
                self.snd_buf_limit > len(self.snd_buf):
            self.on_sendable(self.snd_buf_limit - len(self.snd_buf))

    def _fin_acked(self) -> None:
        state = self.state
        if state is FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif state is CLOSING:
            self._enter_time_wait()
        elif state is LAST_ACK:
            self._enter_closed()

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self.retransmits += 1
        flight = (self.snd_nxt - self.snd_una) & _MASK
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self._retransmit_one()
        self.cwnd = self.ssthresh + 3 * self.mss
        self._rtt_seq = None  # Karn

    # -- data receive machinery ---------------------------------------------------

    def _rcv_window(self) -> int:
        reass = self._reass     # empty in order, the common case
        return max(0, self.rcv_buf_limit - self.delivered_unconsumed - (
            sum(map(len, reass.values())) if reass else 0))

    def _process_data(self, seq: int, payload: bytes) -> None:
        reass = self._reass     # _rcv_window inlined
        window = self.rcv_buf_limit - self.delivered_unconsumed - (
            sum(map(len, reass.values())) if reass else 0)
        if window <= 0:
            self._send_ack()
            return
        if seq == self.rcv_nxt:
            data = payload[:window]
            self.rcv_nxt = (self.rcv_nxt + len(data)) & _MASK
            self._deliver(data)
            # Pull contiguous reassembled segments through.
            while self.rcv_nxt in reass:
                chunk = reass.pop(self.rcv_nxt)
                self.rcv_nxt = (self.rcv_nxt + len(chunk)) & _MASK
                self._deliver(chunk)
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2 or self._fin_received:
                self._send_ack()
            elif self._delack_timer is None:    # arm the delayed ACK once
                self._delack_timer = self.host.set_timer(
                    self.DELAYED_ACK_US, self._delack_fire, name="tcp-delack")
        else:
            # Out of order: stash and send an immediate duplicate ACK.
            if len(reass) < 64 and seq not in reass:
                reass[seq] = payload[:window]
            self._send_ack()

    def _deliver(self, data: bytes) -> None:
        # The commercial TCP code both systems share (paper sec. 4.2)
        # copies received data from mbufs into the receive buffer;
        # cpu.charge inlined (exact body, exact order).
        n = len(data)
        cpu = self.host.cpu
        if not cpu._stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = n * self.host.costs.copy_per_byte
        cpu._stack[-1] += amount
        cpu.category_times["copy"] += amount
        self.delivered_unconsumed += n
        if self.on_data is not None:
            self.on_data(data)
        if self.auto_consume:
            self.delivered_unconsumed -= n

    def _process_fin(self, fin_seq: int) -> None:
        if fin_seq != self.rcv_nxt:
            if seq_lt(fin_seq, self.rcv_nxt):
                # Duplicate FIN: our ACK was lost, the peer (e.g. stuck in
                # LAST_ACK) is retransmitting.  Re-ACK or it never closes.
                self._send_ack()
            return  # otherwise: FIN not yet in order
        self._fin_received = True
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._send_ack()
        state = self.state
        if state is ESTABLISHED:
            self.state = CLOSE_WAIT
            self._notify_close()
        elif state is FIN_WAIT_1:
            # Simultaneous close (our FIN unacked yet).
            self.state = CLOSING
            self._notify_close()
        elif state is FIN_WAIT_2:
            self._notify_close()
            self._enter_time_wait()

    # ------------------------------------------------------------------
    # Output engine
    # ------------------------------------------------------------------

    def _output(self) -> None:
        """Send whatever the windows allow (plain code)."""
        if self.state not in _SENDING:
            return
        snd_buf = self.snd_buf
        mss = self.mss
        sent_something = False
        while True:
            # Bytes of the SYN/FIN occupy sequence space, not buffer
            # space: the flight is snd_nxt's offset in the buffer.
            snd_nxt = self.snd_nxt
            flight = (snd_nxt - self.snd_una) & _MASK
            buffered = len(snd_buf)
            unsent = buffered - flight
            if unsent <= 0:
                break
            usable = min(self.snd_wnd, self.cwnd) - flight
            if usable <= 0:
                if self.snd_wnd == 0:
                    # Zero window: persist probes own recovery; the
                    # retransmission timer pauses (BSD behaviour).
                    self._cancel_rexmt()
                    self._arm_persist()
                break
            length = min(unsent, usable, mss)
            if flight > 0:
                if length < min(unsent, mss):
                    break  # silly-window avoidance: wait for a fuller segment
                if length < mss and not self.nodelay:
                    break  # Nagle: coalesce small writes while data is unacked
            # One memcpy: slicing the bytearray first would copy twice.
            chunk = bytes(memoryview(snd_buf)[flight:flight + length])
            self._send_data(snd_nxt, chunk, flight + length == buffered)
            if self._rtt_seq is None:
                self._rtt_seq = snd_nxt
                self._rtt_start = self.host.engine.now
            self.snd_nxt = (snd_nxt + length) & _MASK
            sent_something = True
        # FIN transmission once the buffer has drained (every break above
        # leaves snd_nxt, flight and buffered current).
        if self.fin_queued and self.fin_sent_seq is None and \
                flight >= buffered and min(self.snd_wnd, self.cwnd) > flight:
            self.fin_sent_seq = snd_nxt
            self._send_control(FIN | ACK, seq=snd_nxt)
            self.snd_nxt = (snd_nxt + 1) & _MASK
            sent_something = True
        if sent_something and self._rexmt_timer is None:  # _arm_rexmt inlined
            self._rexmt_timer = self.host.set_timer(
                self.rto, self._rexmt_fire, name="tcp-rexmt")

    def _retransmit_one(self) -> None:
        """Resend the segment at snd_una."""
        # Pre-establishment states first: data queued by an early send()
        # sits in snd_buf, but the unacked segment at snd_una is the SYN.
        if self.state is SYN_SENT:
            self._send_control(SYN, seq=self.iss)
            return
        if self.state is SYN_RCVD:
            self._send_control(SYN | ACK, seq=self.iss)
            return
        # Only bytes already sent: snd_buf can hold a tail that Nagle or
        # the window kept back, and resending it would put data past
        # snd_nxt, which the peer then ACKs as "data never sent".  After
        # a FIN the flight is one more than the buffer, so it is no cap.
        length = min(len(self.snd_buf), self.mss,
                     (self.snd_nxt - self.snd_una) & _MASK)
        if length > 0:
            chunk = bytes(memoryview(self.snd_buf)[:length])
            self._send_data(self.snd_una, chunk, push=True)
        elif self.fin_sent_seq is not None:
            self._send_control(FIN | ACK, seq=self.fin_sent_seq)

    # -- segment emission --------------------------------------------------------

    def _send_data(self, seq: int, payload: bytes, push: bool) -> None:
        reass = self._reass     # _rcv_window inlined
        window = max(0, self.rcv_buf_limit - self.delivered_unconsumed - (
            sum(map(len, reass.values())) if reass else 0))
        self._advertised_window = window
        self.proto.send_segment(self, seq, self.rcv_nxt,
                                ACK | PSH if push else ACK, window, payload)
        self.segments_sent += 1
        self.bytes_sent += len(payload)
        self._segs_since_ack = 0
        if self._delack_timer is not None:      # _cancel_delack inlined
            self._delack_timer.cancel()
            self._delack_timer = None

    def _send_control(self, flags: int, seq: int) -> None:
        ack = self.rcv_nxt if (flags & ACK) else 0
        window = self._rcv_window()
        if flags & ACK:
            self._advertised_window = window
        self.proto.send_segment(self, seq, ack, flags, window, b"")
        self.segments_sent += 1

    def _send_ack(self) -> None:
        """A pure ACK: a data segment with no data and no PSH."""
        self._send_data(self.snd_nxt, b"", False)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _update_rtt(self, sample_us: float) -> None:
        if self.srtt is None:
            self.srtt = sample_us
            self.rttvar = sample_us / 2
        else:
            delta = sample_us - self.srtt
            self.srtt += delta / 8
            self.rttvar += (abs(delta) - self.rttvar) / 4
        self.rto = min(max(self.srtt + 4 * self.rttvar, self.MIN_RTO_US),
                       self.MAX_RTO_US)

    def _arm_rexmt(self, restart: bool = False) -> None:
        if self._rexmt_timer is not None:
            if not restart:
                return
            self._rexmt_timer.cancel()
        self._rexmt_timer = self.host.set_timer(
            self.rto, self._rexmt_fire, name="tcp-rexmt")

    def _cancel_rexmt(self) -> None:
        if self._rexmt_timer is not None:
            self._rexmt_timer.cancel()
            self._rexmt_timer = None

    def _rexmt_fire(self) -> None:
        self._rexmt_timer = None
        state = self.state
        if state is CLOSED:
            return
        if self.snd_wnd == 0 and self._persist_timer is not None:
            return  # persist mode: probes own recovery
        if self.snd_una == self.snd_nxt and state not in (SYN_SENT, SYN_RCVD):
            return  # everything acked meanwhile
        self._rexmt_shift += 1
        if self._rexmt_shift > self.MAX_RETRANSMITS:
            # The peer is unreachable: drop the connection (RFC 793's
            # user timeout); prevents retransmitting into a void forever.
            self._enter_closed(notify_reset=True)
            return
        self.retransmits += 1
        flight = (self.snd_nxt - self.snd_una) & _MASK
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dupacks = 0
        self.rto = min(self.rto * 2, self.MAX_RTO_US)
        self._rtt_seq = None  # Karn's rule
        self._retransmit_one()
        self._arm_rexmt(restart=True)

    def _cancel_delack(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _delack_fire(self) -> None:
        self._delack_timer = None
        if self._segs_since_ack > 0 and self.state is not CLOSED:
            self._send_ack()

    def _arm_persist(self) -> None:
        if self._persist_timer is not None:
            return
        self._persist_timer = self.host.set_timer(
            self.PERSIST_US, self._persist_fire, name="tcp-persist")

    def _persist_fire(self) -> None:
        self._persist_timer = None
        if self.state is CLOSED:
            return
        offset = seq_sub(self.snd_nxt, self.snd_una)
        if self.snd_wnd == 0 and len(self.snd_buf) > offset:
            # Window probe: one byte beyond the window.
            probe = bytes(self.snd_buf[offset:offset + 1])
            self._send_data(self.snd_nxt, probe, push=True)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._probe_pending = True
            self._arm_persist()
        else:
            self._output()

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._cancel_rexmt()
        self._cancel_delack()
        if self._timewait_timer is None:
            self._timewait_timer = self.host.set_timer(
                2 * self.MSL_US, self._enter_closed, name="tcp-timewait")

    def _enter_closed(self, notify_reset: bool = False) -> None:
        already_closed = self.state is CLOSED
        self.state = CLOSED
        self._cancel_rexmt()
        self._cancel_delack()
        if self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None
        if not already_closed:
            self.proto.forget(self)
            if notify_reset and self.on_reset is not None:
                self.on_reset()

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------

    def _notify_established(self) -> None:
        if self.on_established is not None:
            self.on_established()

    def _notify_close(self) -> None:
        if self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:
        return "<Tcb %s:%d<->%s:%d %s>" % (
            self.laddr, self.lport, self.raddr, self.rport, self.state.value)
