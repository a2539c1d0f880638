"""A multi-homed IP router host.

The paper's testbeds are single segments, but the architecture's claim
that Plexus "could be implemented in more conventional systems" invites
topologies: this module assembles a SPIN host with several interfaces
whose IP layer forwards between them (TTL decrement, header re-checksum,
longest-prefix routes, ICMP time-exceeded) -- the substrate for multi-hop
tests and examples.

A router is infrastructure, not an application endpoint: it is built
directly on the SPIN kernel without the Plexus manager surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..spin.kernel import SpinKernel
from .headers import IPPROTO_ICMP
from .icmp import IcmpProto
from .ip import IpProto
from .link_adapter import direct_upcall, link_to_ip

__all__ = ["Router", "RouterInterface"]


class RouterInterface:
    """One attachment: a NIC plus its address and link flavour."""

    def __init__(self, nic, address: int, link: str = "ethernet",
                 neighbors: Optional[Dict[int, object]] = None):
        self.nic = nic
        self.address = address
        self.link = link
        self.neighbors = neighbors or {}
        #: what IP sends through to reach this network; filled by Router
        self.adapter = None


class Router:
    """A forwarding host joining two or more networks."""

    def __init__(self, kernel: SpinKernel, interfaces: List[RouterInterface]):
        if len(interfaces) < 2:
            raise ValueError("a router joins at least two networks")
        self.host = kernel
        self.interfaces = interfaces

        # The IP layer answers to every interface address.
        primary = interfaces[0]
        self.ip = IpProto(kernel, primary.address, lower=None)
        self.ip.forwarding = True
        for interface in interfaces[1:]:
            self.ip.add_alias(interface.address)
        self.icmp = IcmpProto(kernel, self.ip)
        self.ip.upcall = self._local_demux
        self.ip.time_exceeded_hook = self._time_exceeded

        # Interfaces are wired with direct calls: a router is kernel
        # infrastructure, not an extension.
        for interface in interfaces:
            bottom, interface.adapter, arp, header_len = link_to_ip(
                kernel, interface.nic, interface.address, interface.link,
                interface.neighbors)
            bottom.upcall = direct_upcall(self.ip, arp, header_len)
            kernel.register_device_input(interface.nic, bottom.input)
        # Default lower: the first interface (used when no route matches).
        self.ip.lower = interfaces[0].adapter

    # -- configuration ----------------------------------------------------

    def add_route(self, network: int, prefix_len: int,
                  interface_index: int, gateway: Optional[int] = None) -> None:
        """Route ``network/prefix`` out of interface ``interface_index``."""
        self.ip.add_route(network, prefix_len,
                          adapter=self.interfaces[interface_index].adapter,
                          gateway=gateway)

    # -- local traffic (pings to the router itself) --------------------------

    def _local_demux(self, protocol, m, off, src, dst) -> None:
        if protocol == IPPROTO_ICMP:
            self.icmp.input(m, off, src, dst)
        # A plain router terminates nothing else.

    def _time_exceeded(self, m, off, src) -> None:
        # ICMP time-exceeded is type 11; reuse the unreachable machinery
        # with the proper type via the low-level send.
        self.icmp.send_time_exceeded(m, off, src)

    @property
    def forwarded(self) -> int:
        return self.ip.forwarded
