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

* :class:`PlexusForwarder` -- installed on the front host (whose address
  is the service's virtual IP): claims the port redirect and re-emits
  each matching packet to a backend chosen per flow (round-robin load
  balancing across backends).
* :class:`BackendService` -- installed on each backend: hosts the virtual
  IP as an alias and serves the port, replying with the virtual address
  as source so clients see one coherent peer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.manager import Credential
from ..core.plexus import PlexusStack
from ..lang.ephemeral import ephemeral
from ..lang.view import VIEW
from ..net.headers import IPPROTO_TCP, TCP_HEADER, UDP_HEADER

__all__ = ["PlexusForwarder", "BackendService"]


class PlexusForwarder:
    """The in-kernel redirect node on the front host."""

    def __init__(self, stack: PlexusStack, port: int, backends: List[int],
                 ip_protocol: int = IPPROTO_TCP, name: str = "forwarder"):
        if not backends:
            raise ValueError("need at least one backend")
        self.stack = stack
        self.port = port
        self.backends = list(backends)
        self.credential = Credential(name, privileged=True)
        self.flows: Dict[Tuple[int, int], int] = {}
        self.packets_forwarded = 0
        self._rr = 0
        self._redirect = stack.ip_manager.link_redirect_capability(self.credential)
        header_layout = TCP_HEADER if ip_protocol == IPPROTO_TCP else UDP_HEADER
        redirect = self._redirect
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

        self.handle = stack.ip_manager.claim_port_redirect(
            self.credential, ip_protocol, port, ephemeral(handler),
            mode=stack.deliver_mode,
            time_limit=200.0 if stack.deliver_mode == "inline" else None)

    def _pick_backend(self) -> int:
        backend = self.backends[self._rr % len(self.backends)]
        self._rr += 1
        return backend

    def remove(self) -> None:
        """Tear the redirect node out of the running graph."""
        self.handle.uninstall()

    def flow_count(self) -> int:
        return len(self.flows)


class BackendService:
    """Backend side: host the virtual IP and serve the port."""

    def __init__(self, stack: PlexusStack, virtual_ip: int, port: int,
                 on_accept: Optional[Callable] = None,
                 echo: bool = False, name: str = "backend"):
        self.stack = stack
        self.port = port
        self.credential = Credential(name, privileged=True)
        alias = stack.ip_manager.alias_capability(self.credential)
        alias(virtual_ip)
        self.connections = []

        def accept(tcb):
            self.connections.append(tcb)
            if echo:
                tcb.on_data = lambda data, t=tcb: t.send(data)
            if on_accept is not None:
                on_accept(tcb)

        self.listener = stack.tcp_manager.listen(self.credential, port, accept)
