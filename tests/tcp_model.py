"""An RFC 793 reference model of one TCP endpoint, for the lockstep test.

The model knows nothing of ``repro.net.tcp``.  A state is its RFC 793
name, a segment is its header fields, and the endpoint's sequence
variables are plain integers the caller hands in.  It answers two
questions:

* :func:`classify`: which event a segment is for an endpoint in a given
  state, by RFC 793's acceptability test (section 3.3, "Segment
  Arrives"): SYN, SYN|ACK, ACK, FIN, RST, data inside the window, a
  segment outside it, or an ACK of something never sent.
* :func:`step`: for ``(state, event)``, the set of states the endpoint
  may be in afterwards and the class of reply it must have sent: an ACK,
  a RST, a SYN, a SYN|ACK, any segment, or none required.

User calls (open, send, close, abort) and the retransmit and
delayed-ACK timers are events too.  Persist, 2MSL and a FIN_WAIT_2
timeout are not modelled: TIME_WAIT is terminal here, and no test
window closes.

Where RFC 793 leaves a choice the model allows each branch:

* a RST in a synchronized state closes the connection whatever its
  sequence number (RFC 793 drops one outside the window; RFC 5961's
  challenge ACK is not modelled), and one in SYN_RCVD may close the
  child instead of returning it to LISTEN;
* out-of-order data in the window need not be ACKed at once (RFC 1122
  4.2.2.21 makes the immediate ACK a SHOULD), and in-order data may wait
  for the delayed ACK;
* the ACK of a segment outside the window may still be processed, as
  4.4BSD does (RFC 793 drops the segment after its ACK);
* close in SYN_RCVD may wait in SYN_RCVD for the handshake ACK before it
  enters FIN_WAIT_1.
"""

MASK = 0xFFFFFFFF

(CLOSED, LISTEN, SYN_SENT, SYN_RCVD, ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2,
 CLOSE_WAIT, CLOSING, LAST_ACK, TIME_WAIT) = (
    "CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1",
    "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT")

# Segment events.
E_SYN, E_SYN_ACK, E_ACK, E_FIN, E_RST = "syn", "syn|ack", "ack", "fin", "rst"
E_DATA_IN, E_DATA_OUT, E_ACK_UNSENT = "data in window", "outside window", \
    "ack of unsent"
# User calls and timers.
E_OPEN, E_SEND, E_CLOSE, E_ABORT = "open", "send", "close", "abort"
E_REXMT, E_DELACK = "retransmit timer", "delayed-ack timer"

# Reply classes.
R_NONE, R_ACK, R_RST, R_SYN, R_SYN_ACK, R_ANY = (
    None, "ACK", "RST", "SYN", "SYN|ACK", "any segment")

# Flag bits.
FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10


def seq_le(a, b):
    """``a <= b`` in sequence space."""
    return (b - a) & MASK < 1 << 31


def seq_lt(a, b):
    return a != b and seq_le(a, b)


def classify(state, flags, seq, ack, data_len, *, rcv_nxt, rcv_wnd, snd_max):
    """The event a segment is for an endpoint in ``state``.

    ``rcv_nxt`` and ``rcv_wnd`` are what the endpoint expects and last
    advertised, ``snd_max`` the sequence number after the last it has
    put on the wire; the synchronized states read them."""
    if flags & RST:
        return E_RST
    if state in (CLOSED, LISTEN):
        if flags & SYN and not flags & ACK:
            return E_SYN
        return E_ACK if flags & ACK else E_DATA_OUT
    if state == SYN_SENT:
        if flags & SYN:
            return E_SYN_ACK if flags & ACK else E_SYN
        return E_ACK
    if state == TIME_WAIT and flags & FIN:
        return E_FIN    # the peer retransmits its FIN, in or out of window
    # Synchronized: RFC 793's four-case acceptability test.
    seg_len = data_len + (1 if flags & SYN else 0) + (1 if flags & FIN else 0)
    end = (rcv_nxt + rcv_wnd) & MASK

    def in_window(x):
        return seq_le(rcv_nxt, x) and seq_lt(x, end)
    if seg_len == 0:
        acceptable = seq == rcv_nxt if rcv_wnd == 0 else in_window(seq)
    else:
        acceptable = rcv_wnd > 0 and (
            in_window(seq) or in_window((seq + seg_len - 1) & MASK))
    if not acceptable:
        return E_DATA_OUT
    if flags & ACK and seq_lt(snd_max, ack):
        return E_ACK_UNSENT
    if flags & SYN:
        return E_SYN
    if flags & FIN and seq_le(seq, rcv_nxt):
        return E_FIN    # its data (if any) and the FIN arrive in order
    return E_DATA_IN if data_len else E_ACK


def acks(flags, ack, seq_no):
    """Whether a segment's ACK covers the sequence slot ``seq_no`` (None:
    no such slot was sent)."""
    return bool(flags & ACK) and seq_no is not None and seq_lt(seq_no, ack)


def _after_ack(state, acks_syn, acks_fin, user_closed):
    """The state once an acceptable segment's ACK is processed."""
    if state == SYN_RCVD and acks_syn:
        state = FIN_WAIT_1 if user_closed else ESTABLISHED
    if acks_fin:
        if state == FIN_WAIT_1:
            return FIN_WAIT_2
        if state == CLOSING:
            return TIME_WAIT
        if state == LAST_ACK:
            return CLOSED
    return state


def _after_fin(state):
    """The state once an in-order FIN is processed."""
    return {ESTABLISHED: CLOSE_WAIT, SYN_RCVD: CLOSE_WAIT,
            FIN_WAIT_1: CLOSING, FIN_WAIT_2: TIME_WAIT}.get(state, state)


def step(state, event, *, acks_syn=False, acks_fin=False, user_closed=False,
         outstanding=False, ack_owed=False):
    """``(allowed next states, required reply)`` for ``event`` in ``state``.

    ``acks_syn`` / ``acks_fin``: the segment's ACK covers this endpoint's
    SYN / FIN; ``user_closed``: close was called in SYN_RCVD;
    ``outstanding``: sequence space is unacknowledged when the retransmit
    timer fires; ``ack_owed``: in-order data arrived that no segment has
    ACKed when the delayed-ACK timer fires."""
    same = frozenset((state,))
    if event == E_OPEN:
        assert state == CLOSED, state
        return frozenset((SYN_SENT,)), R_SYN
    if event == E_SEND:
        return same, R_NONE
    if event == E_CLOSE:
        nxt = {ESTABLISHED: (FIN_WAIT_1,), CLOSE_WAIT: (LAST_ACK,),
               SYN_SENT: (CLOSED,), LISTEN: (CLOSED,),
               SYN_RCVD: (SYN_RCVD, FIN_WAIT_1)}.get(state, (state,))
        return frozenset(nxt), R_NONE
    if event == E_ABORT:
        return frozenset((CLOSED,)), (
            R_RST if state in (SYN_RCVD, ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2,
                               CLOSE_WAIT) else R_NONE)
    if event == E_REXMT:
        # Past MAX_RETRANSMITS an endpoint may give up (a user timeout).
        reply = {SYN_SENT: R_SYN, SYN_RCVD: R_SYN_ACK}.get(
            state, R_ANY if outstanding else R_NONE)
        return frozenset((state, CLOSED)), reply
    if event == E_DELACK:
        return same, R_ACK if ack_owed else R_NONE

    # Segment events.
    if state == CLOSED:
        return same, R_NONE if event == E_RST else R_RST
    if state == LISTEN:
        if event == E_SYN:
            return frozenset((SYN_RCVD,)), R_SYN_ACK
        return same, R_RST if event == E_ACK else R_NONE
    if state == SYN_SENT:
        if event == E_RST:
            return frozenset((CLOSED,)) if acks_syn else same, R_NONE
        if event == E_SYN_ACK:
            if acks_syn:
                return frozenset((ESTABLISHED,)), R_ACK
            return same, R_RST
        if event == E_SYN:
            return frozenset((SYN_RCVD,)), R_SYN_ACK
        return same, R_NONE
    if state == TIME_WAIT:
        if event == E_RST:
            return frozenset((CLOSED,)), R_NONE
        # A retransmitted FIN is re-ACKed (p. 73), and so is a segment
        # outside the window, as in every synchronized state (p. 69).
        return same, R_ACK if event in (E_FIN, E_DATA_OUT) else R_NONE
    # Synchronized, TIME_WAIT aside.
    if event == E_RST:
        nxt = (CLOSED, LISTEN) if state == SYN_RCVD else (CLOSED,)
        return frozenset(nxt), R_NONE
    if event == E_ACK_UNSENT:
        return same, R_ACK
    if event == E_DATA_OUT:
        # Its ACK may still be news (4.4BSD processes it).
        return frozenset((state, _after_ack(state, acks_syn, acks_fin,
                                            user_closed))), R_ACK
    if event == E_SYN:
        # A SYN in the window is an error: RST, and the connection closes.
        return frozenset((CLOSED,)), R_RST
    nxt = _after_ack(state, acks_syn, acks_fin, user_closed)
    if event == E_FIN:
        return frozenset((_after_fin(nxt),)), R_ACK
    return frozenset((nxt,)), R_NONE


def replied(reply, segments):
    """Whether ``segments`` (each ``(flags, seq, ack, window, data_len)``)
    include one of class ``reply``."""
    if reply == R_NONE:
        return True
    for flags, *_ in segments:
        if reply == R_ANY:
            return True
        if reply == R_RST and flags & RST:
            return True
        if reply == R_ACK and flags & ACK and not flags & (RST | SYN):
            return True
        if reply == R_SYN and flags & (SYN | ACK) == SYN:
            return True
        if reply == R_SYN_ACK and flags & (SYN | ACK) == SYN | ACK:
            return True
    return False
