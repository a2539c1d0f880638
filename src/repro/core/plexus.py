"""Plexus stack assembly: Figure 1 as executable structure.

``PlexusStack`` builds, on one SPIN kernel, the protocol graph of the
paper's Figure 1: the device at the bottom, Ethernet (or a raw link node
for ATM/T3) above it, ARP and IP above that, ICMP/UDP/TCP above IP, and
application extensions at the top -- every inter-layer hand-off an event
raise through the SPIN dispatcher, demultiplexed by guards.

Delivery modes (paper Figure 5):

* ``deliver_mode="interrupt"`` -- the whole receive chain runs inline in
  the network interrupt context (handlers must be EPHEMERAL; lowest
  latency),
* ``deliver_mode="thread"`` -- each event raise spawns a fresh kernel
  thread for its handlers (the safe-but-slower structure).

Received packets are frozen (READONLY) before entering the graph, so
extensions can share buffers without copies but cannot corrupt them
(paper sec. 3.4).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hw.nic import NIC
from ..net.headers import (
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from ..net.icmp import IcmpProto
from ..net.ip import IpProto
from ..net.link_adapter import link_to_ip
from ..net.tcp import TcpProto
from ..net.udp import UdpProto
from ..spin.domain import Domain, Interface
from ..spin.kernel import SpinKernel
from ..spin.linker import Extension, LinkedExtension
from .graph import ProtocolGraph
from .manager import (
    Credential,
    EthernetManager,
    IpManager,
    TcpManager,
    UdpManager,
)
from . import filters

__all__ = ["PlexusStack", "KERNEL_CREDENTIAL"]

#: The kernel's own principal (privileged).
KERNEL_CREDENTIAL = Credential("kernel", privileged=True)


class PlexusStack:
    """The live Plexus protocol graph on one SPIN host."""

    def __init__(self, kernel: SpinKernel, nic: NIC, my_ip: int,
                 deliver_mode: str = "interrupt",
                 link: str = "ethernet",
                 neighbors: Optional[Dict[int, object]] = None):
        if deliver_mode not in ("interrupt", "thread"):
            raise ValueError("deliver_mode must be 'interrupt' or 'thread'")
        bottom, adapter, self.arp, header_len = link_to_ip(
            kernel, nic, my_ip, link, neighbors)
        self.host = kernel
        self.nic = nic
        self.my_ip = my_ip
        self.deliver_mode_name = deliver_mode
        #: dispatcher mode string for manager-installed handlers
        self.deliver_mode = "inline" if deliver_mode == "interrupt" else "thread"
        self.graph = ProtocolGraph(kernel)
        dispatcher = kernel.dispatcher

        # ---- events (the paper's PacketRecv per protocol) -----------------
        self.link_node_name = "ethernet" if link == "ethernet" else "link"
        self.link_recv_event = dispatcher.declare(
            "%s.PacketRecv" % self.link_node_name.capitalize())
        self.ip_recv_event = dispatcher.declare("IP.PacketRecv")
        self.udp_recv_event = dispatcher.declare("UDP.PacketRecv")
        self.tcp_recv_event = dispatcher.declare("TCP.PacketRecv")

        # ---- graph nodes ----------------------------------------------------
        self.graph.add_node(nic.name, "device")
        link_node = self.graph.add_node(self.link_node_name, "protocol")
        self.graph.add_node("ip", "protocol")
        self.graph.add_node("udp", "protocol")
        self.graph.add_node("tcp", "protocol")
        self.graph.add_node("icmp", "protocol")
        if link == "ethernet":
            self.graph.add_node("arp", "protocol")

        # ---- protocol instances -----------------------------------------------
        self.ethernet, self.rawlink = (
            (bottom, None) if link == "ethernet" else (None, bottom))
        self.ip = IpProto(kernel, my_ip, adapter)
        self.icmp = IcmpProto(kernel, self.ip)
        self.udp = UdpProto(kernel, self.ip)
        self.tcp = TcpProto(kernel, self.ip, name="tcp-standard")

        # ---- managers (protection policy) ----------------------------------------
        self.ethernet_manager: Optional[EthernetManager] = None
        if link == "ethernet":
            # Managers attach to the link node by stack.link_node_name.
            self.ethernet_manager = EthernetManager(
                self, reserved_types=(ETHERTYPE_IP, ETHERTYPE_ARP))
        self.ip_manager = IpManager(self)
        self.udp_manager = UdpManager(self)
        self.tcp_manager = TcpManager(self)

        # ---- wire the kernel's own edges ---------------------------------------------
        self._wire_graph(dispatcher, link_node, bottom, header_len)
        kernel.register_device_input(nic, bottom.input)

        # ---- application-visible protection domains -------------------------------------
        self.app_domain = self._build_app_domain()
        self.net_domain = self._build_net_domain()
        kernel.export_interface(Interface("Dispatcher", {
            "Install": dispatcher.install,
            "Declare": dispatcher.declare,
            "Raise": dispatcher.raise_event,
        }))

    # ------------------------------------------------------------------
    # Graph wiring
    # ------------------------------------------------------------------

    def _wire_graph(self, dispatcher, link_node, bottom, header_len: int) -> None:
        graph = self.graph
        mode = self.deliver_mode
        link_event = self.link_recv_event
        raise_event = dispatcher.raise_event

        # Device -> link node: the link protocol's input (run at interrupt
        # level by the kernel) freezes the packet and raises PacketRecv.
        def link_upcall(nic, m):
            m.freeze()
            raise_event(link_event, nic, m)
        bottom.upcall = link_upcall

        if self.ethernet is not None:
            # Ethernet -> IP (guard: type == IP)
            def eth_ip_handler(nic, m):
                self.ip.input(m, header_len)
            graph.install(
                link_event, eth_ip_handler, link_node, graph.node("ip"),
                guard=filters.ethertype_guard(ETHERTYPE_IP),
                mode=mode, label="ip-input")

            # Ethernet -> ARP (guard: type == ARP); ARP replies are cheap
            # and always handled inline.
            def eth_arp_handler(nic, m):
                self.arp.input(m, header_len)
            graph.install(
                link_event, eth_arp_handler, link_node, graph.node("arp"),
                guard=filters.ethertype_guard(ETHERTYPE_ARP),
                mode="inline", label="arp-input")
        else:
            # Raw link -> IP, unconditionally.
            def raw_ip_handler(nic, m):
                self.ip.input(m, header_len)
            graph.install(
                link_event, raw_ip_handler, link_node, graph.node("ip"),
                guard=None, mode=mode, label="ip-input")

        # IP -> {UDP, TCP, ICMP} (guards on the protocol field).
        ip_event = self.ip_recv_event

        def ip_upcall(protocol, m, off, src, dst):
            raise_event(ip_event, protocol, m, off, src, dst)
        self.ip.upcall = ip_upcall

        def ip_udp_handler(protocol, m, off, src, dst):
            self.udp.input(m, off, src, dst)
        graph.install(
            ip_event, ip_udp_handler, graph.node("ip"), graph.node("udp"),
            guard=filters.ip_protocol_guard(IPPROTO_UDP), mode=mode,
            label="udp-input")

        tcp_event = self.tcp_recv_event

        def ip_tcp_handler(protocol, m, off, src, dst):
            raise_event(tcp_event, m, off, src, dst)
        graph.install(
            ip_event, ip_tcp_handler, graph.node("ip"), graph.node("tcp"),
            guard=filters.ip_protocol_guard(IPPROTO_TCP), mode=mode,
            label="tcp-input")

        def ip_icmp_handler(protocol, m, off, src, dst):
            self.icmp.input(m, off, src, dst)
        graph.install(
            ip_event, ip_icmp_handler, graph.node("ip"), graph.node("icmp"),
            guard=filters.ip_protocol_guard(IPPROTO_ICMP), mode=mode,
            label="icmp-input")

        # TCP node -> standard implementation, excluding ports claimed by
        # special implementations or IP-level redirects (live sets, read
        # at every raise).
        tcp_manager = self.tcp_manager

        def tcp_standard_handler(m, off, src_ip, dst_ip):
            self.tcp.input(m, off, src_ip, dst_ip)
        standard_node = graph.add_node("tcp:standard", "protocol")
        graph.install(
            tcp_event, tcp_standard_handler, graph.node("tcp"), standard_node,
            guard=filters.tcp_standard_guard(tcp_manager.special_ports,
                                             tcp_manager.diverted_ports),
            mode=mode, label="tcp-standard")

        # UDP -> endpoints: raised by the UDP protocol after verification;
        # endpoint edges are installed by the UDP manager on demand.  The
        # diverted-ports check suppresses local delivery under a redirect.
        udp_manager = self.udp_manager
        udp_event = self.udp_recv_event

        def udp_upcall(m, off, src_ip, src_port, dst_ip, dst_port):
            if dst_port in udp_manager.diverted_ports:
                return
            raise_event(udp_event, m, off, src_ip, src_port, dst_ip, dst_port)
        self.udp.upcall = udp_upcall

    # ------------------------------------------------------------------
    # Protection domains
    # ------------------------------------------------------------------

    def _build_app_domain(self) -> Domain:
        """The domain ordinary applications link against: manager
        interfaces only -- no direct device, dispatcher, or IP access."""
        udp_iface = Interface("UDP", {
            "Bind": self.udp_manager.bind,
        })
        tcp_iface = Interface("TCP", {
            "Listen": self.tcp_manager.listen,
            "Connect": self.tcp_manager.connect,
            "InstallImplementation": self.tcp_manager.install_implementation,
        })
        mbuf_iface = Interface("Mbuf", {
            "FromBytes": self.host.mbufs.from_bytes,
            "CopyPacket": self.host.mbufs.copy_packet,
        })
        return Domain.create("%s.app" % self.host.name,
                             [udp_iface, tcp_iface, mbuf_iface])

    def _build_net_domain(self) -> Domain:
        """The wider domain for networking services (forwarders, active
        messages): adds link-level and IP-level manager interfaces."""
        domain = self.app_domain.copy("%s.net" % self.host.name)
        ip_iface = Interface("IP", {
            "ClaimProtocol": self.ip_manager.claim_protocol,
            "ClaimPortRedirect": self.ip_manager.claim_port_redirect,
            "SendCapability": self.ip_manager.send_capability,
        })
        domain.export_interface(ip_iface)
        if self.ethernet_manager is not None:
            eth_iface = Interface("Ethernet", {
                "ClaimEthertype": self.ethernet_manager.claim_ethertype,
                "SendCapability": self.ethernet_manager.send_capability,
            })
            domain.export_interface(eth_iface)
        return domain

    # ------------------------------------------------------------------
    # Extension lifecycle (runtime adaptation)
    # ------------------------------------------------------------------

    def install_extension(self, extension: Extension,
                          domain: Optional[Domain] = None) -> LinkedExtension:
        """Dynamically link an extension against a domain (default: the
        application domain) -- no reboot, no superuser."""
        return self.host.linker.link(extension, domain or self.app_domain)

    def remove_extension(self, linked: LinkedExtension) -> None:
        self.host.linker.unlink(linked)

    def __repr__(self) -> str:
        return "<PlexusStack %s ip=%s mode=%s>" % (
            self.host.name, self.my_ip, self.deliver_mode_name)
