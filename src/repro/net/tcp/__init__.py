"""TCP: a real sliding-window transport over the simulated stack.

:class:`TcpProto` decodes a segment and hands its fields to the
connection's :class:`Tcb` -- ``Tcb.input(seq, ack, flags, window,
payload, mss)`` -- with no segment object between them; listeners are
:class:`TcpListener`.  ``seq_add`` / ``seq_lt`` / ``seq_sub`` are the
sequence-space helpers the cold paths use.
"""

from .protocol import TcpListener, TcpProto
from .tcb import Tcb, TcpState, seq_add, seq_lt, seq_sub

__all__ = [
    "Tcb",
    "TcpListener",
    "TcpProto",
    "TcpState",
    "seq_add",
    "seq_lt",
    "seq_sub",
]
