"""Active messages over Ethernet (paper section 3.3, Figure 2).

"We have extended the protocol graph in Figure 1 to support active
messages over Ethernet.  To minimize latency, the active message handlers
execute in the network interrupt handler."

The extension, linked against a host's net domain, claims a private
ethertype through the Ethernet manager's capability, installs a guard discriminating on the type field (the exact Figure 2
idiom) and an EPHEMERAL handler with a time limit; ``send`` invokes a
named remote handler with a small argument payload.  Because the path is
device -> guard -> handler with no transport layers, its round trip is
the lowest the architecture can produce -- measured against UDP by the
ledger's ``abl.active-messages.*`` rows (``repro.bench.claims``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..core.manager import Credential
from ..lang.ephemeral import ephemeral
from ..lang.layout import Layout, UINT16, UINT32
from ..lang.view import VIEW

__all__ = ["ActiveMessages", "AM_HEADER", "AM_ETHERTYPE"]

AM_ETHERTYPE = 0x88B5  # an "experimental" ethertype
AM_HEADER = Layout("ActiveMessage.T", [
    ("handler_index", UINT16),
    ("seq", UINT32),
    ("arg", UINT32),
])


class ActiveMessages:
    """One host's active-message endpoint (net domain, Ethernet hosts only)."""

    NAME = "active-messages"
    IMPORTS = ["Ethernet.ClaimEthertype", "Ethernet.SendCapability",
               "Delivery.Mode"]

    #: interrupt-context budget for one active-message handler
    TIME_LIMIT_US = 30.0

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 ethertype: int = AM_ETHERTYPE):
        self.handlers: Dict[int, Callable[[int, int, int], None]] = {}
        self.messages_received = 0
        self._seq = 0

        handlers = self.handlers
        state = self
        header_len = 14  # Ethernet header precedes the AM header

        def am_handler(nic, m):
            header = VIEW(m.data, AM_HEADER, offset=header_len)
            state.messages_received += 1
            target = handlers.get(header.handler_index)
            if target is not None:
                target(header.seq, header.arg, header.handler_index)

        mode = env["Delivery.Mode"]
        self.handle = env["Ethernet.ClaimEthertype"](
            credential, ethertype, ephemeral(am_handler), mode=mode,
            time_limit=self.TIME_LIMIT_US if mode == "inline" else None)
        self._send_frame = env["Ethernet.SendCapability"](credential, ethertype)

    def register(self, index: int, handler: Callable[[int, int, int], None]) -> None:
        """Register handler ``index``; ``handler(seq, arg, index)``.

        The handler runs at interrupt level: it must be EPHEMERAL.
        """
        if not getattr(handler, "__ephemeral__", False):
            raise ValueError(
                "active message handlers run at interrupt level and must "
                "be @ephemeral (paper sec. 3.3)")
        self.handlers[index] = handler

    def send(self, dst_mac: bytes, handler_index: int, arg: int = 0) -> int:
        """Invoke remote handler ``handler_index`` (plain code).

        Returns the sequence number used.
        """
        self._seq += 1
        buf = bytearray(AM_HEADER.size)
        view = VIEW(buf, AM_HEADER)
        view.handler_index = handler_index
        view.seq = self._seq
        view.arg = arg
        self._send_frame(bytes(buf), dst_mac)
        return self._seq

    def uninstall(self) -> None:
        self.handle.uninstall()
