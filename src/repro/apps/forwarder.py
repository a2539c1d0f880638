"""The protocol forwarding service (paper section 5.2).

"An application installs a node into the Plexus protocol graph that
redirects all data and control packets destined for a particular port
number to a secondary host."  Because the redirect node sits at the IP
level it sees SYN/FIN/RST as well as data, so TCP's end-to-end semantics
(connection establishment and teardown, window negotiation, slow start,
congestion control) all run directly between the client and the chosen
backend -- unlike the user-level socket splice, which terminates the
client's connection at the forwarder.

Two cooperating pieces:

* :class:`PlexusForwarder` -- linked on the front host (whose address
  is the service's virtual IP): claims the port redirect and re-emits
  each matching packet to a backend chosen per flow (round-robin load
  balancing across backends).
* :class:`BackendService` -- linked on each backend: hosts the virtual
  IP as an alias and serves the port, replying with the virtual address
  as source so clients see one coherent peer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.manager import Credential
from ..lang.ephemeral import ephemeral
from ..lang.view import VIEW
from ..net.headers import IPPROTO_TCP, TCP_HEADER, UDP_HEADER

__all__ = ["PlexusForwarder", "BackendService"]


class PlexusForwarder:
    """The in-kernel redirect node on the front host (net domain, privileged)."""

    NAME = "forwarder"
    IMPORTS = ["IP.ClaimPortRedirect", "IP.LinkRedirect", "Delivery.Mode"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 port: int, backends: List[int],
                 ip_protocol: int = IPPROTO_TCP):
        if not backends:
            raise ValueError("need at least one backend")
        self.backends = list(backends)
        self.flows: Dict[Tuple[int, int], int] = {}
        self.packets_forwarded = 0
        self._rr = 0
        redirect = env["IP.LinkRedirect"](credential)
        header_layout = TCP_HEADER if ip_protocol == IPPROTO_TCP else UDP_HEADER
        flows = self.flows
        state = self

        def handler(proto, m, off, src, dst):
            header = VIEW(m.data, header_layout, offset=off)
            key = (src, header.src_port)
            backend = flows.get(key)
            if backend is None:
                backend = state._pick_backend()
                flows[key] = backend
            state.packets_forwarded += 1
            redirect(m, off - 20, backend)

        mode = env["Delivery.Mode"]
        self.handle = env["IP.ClaimPortRedirect"](
            credential, ip_protocol, port, ephemeral(handler), mode=mode,
            time_limit=200.0 if mode == "inline" else None)

    def _pick_backend(self) -> int:
        backend = self.backends[self._rr % len(self.backends)]
        self._rr += 1
        return backend

    def uninstall(self) -> None:
        """Tear the redirect node out of the running graph."""
        self.handle.uninstall()

    def flow_count(self) -> int:
        return len(self.flows)


class BackendService:
    """Backend side: host the virtual IP and serve the port (net domain, privileged)."""

    NAME = "backend"
    IMPORTS = ["IP.Alias", "TCP.Listen"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 virtual_ip: int, port: int,
                 on_accept: Optional[Callable] = None, echo: bool = False):
        self._unalias = env["IP.Alias"](credential)(virtual_ip)
        self.connections = []

        def accept(tcb):
            self.connections.append(tcb)
            if echo:
                tcb.on_data = lambda data, t=tcb: t.send(data)
            if on_accept is not None:
                on_accept(tcb)

        self.listener = env["TCP.Listen"](credential, port, accept)

    def uninstall(self) -> None:  # stop serving the port and hosting the address
        self.listener.uninstall()
        self._unalias()
