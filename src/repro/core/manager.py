"""Protocol managers: the protection *policy* of Plexus (paper sec. 3.1).

"Both [spoofing and snooping] are prevented through the use of protocol
managers which ensure that a packet is never delivered to, nor accepted
from, an illegitimate protocol graph node.  It is the responsibility of
the protocol manager to define the notion of 'legitimacy'."

Concretely, in this reproduction:

* Applications present a :class:`Credential`.  Port and ethertype
  ownership is tracked per credential in :class:`PortSpace` registries, so
  an application can never attach a handler to an endpoint another
  application owns -- and because the *manager* constructs the guard from
  the claimed endpoint (applications never supply raw guards to transport
  events), a handler can never see traffic outside its claim: snooping is
  impossible by construction.
* Send capabilities returned by the managers *overwrite* source fields
  with the owning endpoint's identity (the paper's fast anti-spoofing
  option), or -- in ``verify`` mode -- check a claimed source and raise
  :class:`SpoofingError` (the debugging option).
* Managers running handlers at interrupt level demand EPHEMERAL handlers
  and attach time limits (paper sec. 3.3); non-ephemeral handlers are
  rejected at install time.

"Once the handler has been installed, the dispatcher will route control
directly to the handler (without going through the intermediate protocol
manager)" -- likewise here: the manager participates only at install and
send-capability creation; the receive path is dispatcher -> guard ->
handler.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..lang.ephemeral import ephemeral, is_ephemeral, register_safe
from ..net.headers import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from ..net.tcp import Tcb, TcpProto
from ..spin.dispatcher import HandlerHandle
from ..spin.mbuf import Mbuf
from . import filters

__all__ = [
    "Credential",
    "PortSpace",
    "AccessError",
    "SpoofingError",
    "EthernetManager",
    "IpManager",
    "UdpManager",
    "UdpEndpoint",
    "TcpManager",
    "TcpImplementation",
    "discard_datagram",
]


class AccessError(PermissionError):
    """An application attempted something its credential does not allow."""


class SpoofingError(AccessError):
    """A send carried an illegitimate source field (verify mode)."""


class Credential:
    """An application principal.

    Unforgeable in the capability sense: managers compare object identity,
    so holding the credential object is the only way to act as it.
    ``privileged`` marks superuser-equivalent principals; per the paper's
    *openness* property they get only marginal extra rights (claiming
    reserved endpoints, preserving foreign source addresses when
    forwarding).
    """

    def __init__(self, name: str, privileged: bool = False):
        self.name = name
        self.privileged = privileged

    def __repr__(self) -> str:
        return "<Credential %s%s>" % (self.name, " privileged" if self.privileged else "")


class PortSpace:
    """Ownership registry for one numeric namespace (ports, ethertypes)."""

    def __init__(self, name: str, reserved: Iterable[int] = ()):
        self.name = name
        self.reserved: Set[int] = set(reserved)
        self._owners: Dict[int, Credential] = {}

    def owner(self, number: int) -> Optional[Credential]:
        return self._owners.get(number)

    def claim(self, number: int, credential: Credential) -> None:
        self.check(number, credential)
        self._owners[number] = credential

    def check(self, number: int, credential: Credential) -> None:
        """Raise the :class:`AccessError` :meth:`claim` would raise."""
        if number in self.reserved and not credential.privileged:
            raise AccessError(
                "%s %d is reserved to the kernel; credential %s may not "
                "claim it" % (self.name, number, credential.name))
        current = self._owners.get(number)
        if current is not None and current is not credential:
            raise AccessError(
                "%s %d is owned by %s; credential %s may not claim it"
                % (self.name, number, current.name, credential.name))

    def release(self, number: int, credential: Credential) -> None:
        current = self._owners.get(number)
        if current is None:
            return
        if current is not credential and not credential.privileged:
            raise AccessError(
                "credential %s may not release %s %d owned by %s"
                % (credential.name, self.name, number, current.name))
        del self._owners[number]


def _refuse_held(space: PortSpace, number: int, credential: Credential) -> None:
    """A number can back one edge: releasing it for one would strip the
    others of their claim."""
    if space.owner(number) is credential:
        raise AccessError("%s %d is already claimed by %s"
                          % (space.name, number, credential.name))


class _ManagerBase:
    """Shared plumbing for the per-protocol managers."""

    def __init__(self, stack, node: str):
        self.stack = stack
        self.host = stack.host
        self.node = node

    def _require_ephemeral(self, handler: Callable, mode: str) -> None:
        if mode == "inline" and not is_ephemeral(handler):
            raise AccessError(
                "handler %r is not EPHEMERAL; only ephemeral procedures may "
                "run at interrupt level (paper sec. 3.3) -- install with "
                "mode='thread' or declare it @ephemeral"
                % getattr(handler, "__name__", handler))

    def _install_edge(self, event, handler: Callable, guard: Optional[Callable],
                      mode: str, time_limit: Optional[float],
                      extension_name: str, space: PortSpace, number: int,
                      credential: Credential,
                      on_uninstall: Optional[Callable[[], None]] = None) -> HandlerHandle:
        """Claim ``number`` in ``space`` -- exclusively, validated first,
        so a refused install leaves no trace -- and install the edge
        behind it to the extension node ``extension_name``; uninstalling
        the handle, by any path, releases the claim, then runs
        ``on_uninstall``."""
        self.host.dispatcher.check_delivery(mode, time_limit)
        _refuse_held(space, number, credential)
        space.claim(number, credential)
        handle = self.stack.graph.install(
            event, handler, self.node, extension_name, guard=guard, mode=mode,
            time_limit=time_limit, label=extension_name)

        def release() -> None:
            space.release(number, credential)
            if on_uninstall is not None:
                on_uninstall()
        handle.on_uninstall = release
        return handle


class EthernetManager(_ManagerBase):
    """Manager for the link-level node: ethertype claims.

    The reserved types (IP, ARP) belong to the kernel stack; applications
    claim private ethertypes (the active-message extension of paper
    sec. 3.3 claims one).  Inline (interrupt-level) handlers must be
    EPHEMERAL and receive a default time limit.
    """

    DEFAULT_TIME_LIMIT_US = 50.0

    def __init__(self, stack, reserved_types: Iterable[int]):
        super().__init__(stack, stack.link_node_name)
        self.types = PortSpace("ethertype", reserved=reserved_types)

    def claim_ethertype(self, credential: Credential, ethertype: int,
                        handler: Callable, mode: str = "inline",
                        time_limit: Optional[float] = None) -> HandlerHandle:
        if mode == "inline":
            self._require_ephemeral(handler, mode)
            if time_limit is None:
                time_limit = self.DEFAULT_TIME_LIMIT_US
        return self._install_edge(
            self.stack.link_recv_event, handler,
            filters.ethertype_guard(ethertype), mode, time_limit,
            "%s:0x%04x:%s" % (self.node, ethertype, credential.name),
            self.types, ethertype, credential)

    def send_capability(self, credential: Credential, ethertype: int) -> Callable:
        """A raw-frame sender locked to the claimed ethertype.

        Anti-spoofing by construction: the returned procedure frames every
        payload with the claimed type and this host's source address.
        """
        owner = self.types.owner(ethertype)
        if owner is not credential:
            raise AccessError(
                "credential %s does not own ethertype 0x%04x" %
                (credential.name, ethertype))
        ethernet = self.stack.ethernet
        if ethernet is None:
            raise AccessError("this stack's link layer does not frame ethertypes")

        def send(payload: bytes, dst_mac: bytes) -> None:
            self.host.cpu.charge(self.host.costs.dispatch_per_handler, "dispatch")
            m = self.host.mbufs.from_bytes(payload, leading_space=16)
            ethernet.output(m, dst_mac, ethertype)

        return register_safe(send)


class IpManager(_ManagerBase):
    """Manager for the IP node: protocol-number and port-redirect claims."""

    def __init__(self, stack):
        super().__init__(stack, "ip")
        self.protocols = PortSpace(
            "ip-protocol", reserved=(IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP))

    def claim_protocol(self, credential: Credential, protocol: int,
                       handler: Callable, mode: str = "inline",
                       time_limit: Optional[float] = None) -> HandlerHandle:
        """Attach a handler for a whole IP protocol number."""
        if mode == "inline":
            self._require_ephemeral(handler, mode)
        return self._install_edge(
            self.stack.ip_recv_event, handler,
            filters.ip_protocol_guard(protocol), mode, time_limit,
            "ipproto:%d:%s" % (protocol, credential.name),
            self.protocols, protocol, credential)

    def claim_port_redirect(self, credential: Credential, ip_protocol: int,
                            port: int, handler: Callable, mode: str = "inline",
                            time_limit: Optional[float] = None) -> HandlerHandle:
        """Install a transport-port redirect node at the IP level.

        This is the paper's forwarding protocol (sec. 5.2): the node sees
        *all* packets -- data and control -- for one TCP/UDP destination
        port, before the local transport would.  The port must be claimable
        in the corresponding transport port space, and local transport
        delivery for it is suppressed while the redirect is installed.
        """
        if ip_protocol == IPPROTO_TCP:
            space = self.stack.tcp_manager.ports
            suppressed = self.stack.tcp_manager.diverted_ports
        elif ip_protocol == IPPROTO_UDP:
            space = self.stack.udp_manager.ports
            suppressed = self.stack.udp_manager.diverted_ports
        else:
            raise AccessError("port redirect supports TCP or UDP only")
        if mode == "inline":
            self._require_ephemeral(handler, mode)
        handle = self._install_edge(
            self.stack.ip_recv_event, handler,
            filters.transport_redirect_guard(ip_protocol, port), mode,
            time_limit,
            "redirect:%d:%d:%s" % (ip_protocol, port, credential.name),
            space, port, credential,
            on_uninstall=lambda: suppressed.discard(port))
        # The TCP-standard guard and the UDP upcall read this set live.
        suppressed.add(port)
        return handle

    def link_redirect_capability(self, credential: Credential) -> Callable:
        """A capability that re-emits a received IP packet, unmodified, to
        a different host on the local link (the in-kernel forwarding node
        of paper sec. 5.2).

        The packet keeps its original source *and destination* addresses
        -- the backend hosts the virtual IP as an alias -- so end-to-end
        transport semantics survive.  Because the re-emitted packet
        carries a foreign source, this capability is privileged.
        """
        if not credential.privileged:
            raise AccessError(
                "transparent redirection re-emits foreign source addresses; "
                "credential %s is not privileged" % credential.name)
        ip = self.stack.ip
        host = self.host

        def redirect(m: Mbuf, ip_header_off: int, next_hop: int) -> None:
            # The per-packet path of Figure 7; cpu.charge inlined (exact
            # body and order), and the IP packet copied out in one slice.
            cpu = host.cpu
            stack = cpu._stack
            if not stack:
                raise ChargeError(OUTSIDE_PATH)
            times = cpu.category_times
            amount = host.costs.dispatch_per_handler
            stack[-1] += amount
            times["dispatch"] += amount
            packet = host.mbufs.from_bytes(
                m._storage[m.off + ip_header_off:m.off + m.len],
                leading_space=16)
            amount = packet.len * host.costs.copy_per_byte
            stack[-1] += amount
            times["copy"] += amount
            ip.lower.send(packet, next_hop)

        # Manager-granted capabilities are trusted kernel code: callable
        # from ephemeral handlers.
        return register_safe(redirect)

    def alias_capability(self, credential: Credential) -> Callable:
        """A capability to host a virtual IP address (privileged):
        ``alias(address)`` returns the procedure that stops hosting it."""
        if not credential.privileged:
            raise AccessError(
                "hosting a foreign address is spoofing; credential %s is "
                "not privileged" % credential.name)
        ip = self.stack.ip

        def alias(address: int) -> Callable[[], None]:
            ip.add_alias(address)
            return lambda: ip.remove_alias(address)
        return alias

    def send_capability(self, credential: Credential,
                        preserve_source: bool = False) -> Callable:
        """An IP sender.  Unprivileged senders always stamp this host's
        address; ``preserve_source`` (transparent forwarding) requires a
        privileged credential."""
        if preserve_source and not credential.privileged:
            raise AccessError(
                "forwarding with a foreign source address is spoofing; "
                "credential %s is not privileged" % credential.name)
        ip = self.stack.ip

        def send(m: Mbuf, dst: int, protocol: int,
                 src: Optional[int] = None) -> None:
            self.host.cpu.charge(self.host.costs.dispatch_per_handler, "dispatch")
            if not preserve_source:
                src = ip.my_ip  # overwrite: the fast anti-spoofing option
            ip.output(m, dst, protocol, src=src)

        return register_safe(send)


class UdpEndpoint:
    """An application's bound UDP port: receive handler + send capability."""

    def __init__(self, manager: "UdpManager", credential: Credential, port: int,
                 handle: HandlerHandle, checksum: bool, spoof_policy: str):
        self.manager = manager
        self.credential = credential
        self.port = port
        self.handle = handle
        self.checksum = checksum
        self.spoof_policy = spoof_policy
        self.closed = False

    def send(self, payload: bytes, dst_ip: int, dst_port: int,
             claimed_src_port: Optional[int] = None) -> None:
        """Send a datagram from this endpoint (plain code).

        The source fields are *overwritten* with the endpoint's identity
        (the manager's fast anti-spoofing policy); in ``verify`` mode a
        mismatched ``claimed_src_port`` raises :class:`SpoofingError`
        instead (the debugging policy of paper sec. 3.1).
        """
        if self.closed:
            raise AccessError("endpoint for port %d is closed" % self.port)
        if self.spoof_policy == "verify" and claimed_src_port is not None and \
                claimed_src_port != self.port:
            raise SpoofingError(
                "endpoint owns port %d but tried to send from port %d"
                % (self.port, claimed_src_port))
        host = self.manager.host
        # The PacketSend raise; cpu.charge inlined (exact body and order).
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = host.costs.dispatch_per_handler
        stack[-1] += amount
        cpu.category_times["dispatch"] += amount
        m = host.mbufs.from_bytes(payload, leading_space=64)
        self.manager.stack.udp.output(
            m, src_port=self.port, dst_ip=dst_ip, dst_port=dst_port,
            checksum=self.checksum)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.handle.installed:
                self.handle.uninstall()

    def uninstall(self) -> None:
        """Alias so the dynamic linker can tear endpoints down at unlink."""
        self.close()


# Sending through an owned endpoint is a trusted, non-blocking kernel
# service: ephemeral handlers may call it (the echo servers of sec. 4 do).
register_safe(UdpEndpoint.send)


@ephemeral
def discard_datagram(m, off, src_ip, src_port, dst_ip, dst_port):
    """A UDP receive handler that drops what arrives: for endpoints that
    only send, and for sinks whose arrivals are not the subject."""


class UdpManager(_ManagerBase):
    """Manager for the UDP node: port binding."""

    DEFAULT_TIME_LIMIT_US = 500.0

    def __init__(self, stack):
        super().__init__(stack, "udp")
        self.ports = PortSpace("udp-port", reserved=range(1, 64))
        self.diverted_ports: Set[int] = set()

    def bind(self, credential: Credential, port: int, handler: Callable,
             mode: str = "inline", time_limit: Optional[float] = None,
             checksum: bool = True, spoof_policy: str = "overwrite") -> UdpEndpoint:
        """Bind ``port``: install the guarded receive handler and return
        the endpoint (which carries the send capability).

        ``handler(m, payload_off, src_ip, src_port, dst_ip, dst_port)``
        runs with a READONLY packet.  ``checksum=False`` selects the
        checksum-disabled UDP variant of paper sec. 1.1 for *sends* from
        this endpoint (receives honour whatever the wire says).
        """
        if spoof_policy not in ("overwrite", "verify"):
            raise AccessError("unknown spoof policy %r" % spoof_policy)
        if port in self.diverted_ports:
            raise AccessError("port %d is diverted by a forwarder" % port)
        if mode == "inline":
            self._require_ephemeral(handler, mode)
            if time_limit is None:
                time_limit = self.DEFAULT_TIME_LIMIT_US
        handle = self._install_edge(
            self.stack.udp_recv_event, handler,
            filters.udp_dst_port_guard(port), mode, time_limit,
            "udp:%d:%s" % (port, credential.name),
            self.ports, port, credential)
        return UdpEndpoint(self, credential, port, handle, checksum, spoof_policy)


class TcpManager(_ManagerBase):
    """Manager for the TCP node: connections, listeners, and alternative
    implementations (paper sec. 3.1, "Multiple protocol implementations")."""

    def __init__(self, stack):
        super().__init__(stack, "tcp")
        self.ports = PortSpace("tcp-port", reserved=range(1, 64))
        #: ports owned by other implementations or diverted by IP-level
        #: redirects; the standard implementation's guard excludes these
        #: live.
        self.diverted_ports: Set[int] = set()
        #: each installed implementation's edge (its HandlerHandle), by name
        self.implementations: Dict[str, HandlerHandle] = {}

    @property
    def standard(self) -> TcpProto:
        return self.stack.tcp

    def listen(self, credential: Credential, port: int,
               on_accept: Callable) -> "TcpListenerHandle":
        if port in self.diverted_ports:
            raise AccessError("tcp port %d is claimed elsewhere" % port)
        if port in self.standard.listeners:
            raise AccessError("tcp port %d already has a listener" % port)
        self.ports.claim(port, credential)
        listener = self.standard.listen(port, on_accept)
        return TcpListenerHandle(self, credential, port, listener)

    def connect(self, credential: Credential, raddr: int, rport: int):
        """Active open through the standard implementation; the ephemeral
        local port is ``credential``'s until the connection closes."""
        proto = self.standard
        lport = proto.allocate_port()
        self.ports.claim(lport, credential)
        tcb = _ClaimedTcb(self.ports, credential, proto, proto.ip.my_ip,
                          lport, raddr, rport)
        proto._register((tcb.laddr, lport, raddr, rport), tcb)
        tcb.connect()
        return tcb

    def install_implementation(self, credential: Credential, name: str,
                               ports: Iterable[int]) -> "TcpImplementation":
        """Install a TCP-special implementation owning ``ports``.

        Returns the installed implementation: a fresh :class:`TcpProto`
        (its ``proto``) whose segments arrive through a guard matching
        exactly those ports; the standard implementation's guard stops
        seeing them the moment this returns (its exclusion set is shared
        and live).  Uninstalling it -- or its edge, ``implementations[name]``
        -- releases the ports, their diversion and the name.
        """
        if name in self.implementations:
            raise AccessError("tcp implementation %r already installed" % name)
        port_list = sorted(set(ports))
        for port in port_list:
            if port in self.diverted_ports:
                raise AccessError("tcp port %d already claimed" % port)
            _refuse_held(self.ports, port, credential)
            self.ports.check(port, credential)
        for port in port_list:
            self.ports.claim(port, credential)
        special = TcpProto(self.host, self.stack.ip, name=name)
        handle = self.stack.graph.install(
            self.stack.tcp_recv_event, special.input, self.node,
            "tcp:%s" % name, guard=filters.tcp_port_guard(port_list),
            mode=self.stack.deliver_mode, label="tcp-%s" % name)
        self.implementations[name] = handle
        # The standard guard reads this set live.
        self.diverted_ports.update(port_list)

        def release() -> None:
            for port in port_list:
                self.ports.release(port, credential)
            self.diverted_ports.difference_update(port_list)
            del self.implementations[name]
        handle.on_uninstall = release
        return TcpImplementation(special, handle)


class _ClaimedTcb(Tcb):
    """A connection opened by :meth:`TcpManager.connect`: entering CLOSED
    releases its local port's claim."""

    __slots__ = ("_claim",)

    def __init__(self, ports: PortSpace, credential: Credential, *args):
        self._claim = (ports, credential)
        super().__init__(*args)

    def _enter_closed(self, notify_reset: bool = False) -> None:
        claim, self._claim = self._claim, None
        super()._enter_closed(notify_reset)
        if claim is not None:
            ports, credential = claim
            ports.release(self.lport, credential)


class TcpImplementation:
    """An installed TCP implementation: ``proto`` serves its ports until unlinked."""

    def __init__(self, proto: TcpProto, edge: HandlerHandle):
        self.proto, self.edge = proto, edge

    def uninstall(self) -> None:
        self.edge.uninstall()


class TcpListenerHandle:
    """Wraps a TCP listener with its port claim."""

    def __init__(self, manager: TcpManager, credential: Credential, port: int,
                 listener):
        self.manager = manager
        self.credential = credential
        self.port = port
        self.listener = listener

    def uninstall(self) -> None:
        self.listener.close()
        self.manager.ports.release(self.port, self.credential)
