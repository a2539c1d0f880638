"""The monolithic-kernel baseline: a DIGITAL UNIX-style host.

Same device drivers, same protocol implementations (``repro.net``) -- as
the paper stresses, "both systems use the same network device driver" and
"the same TCP/IP implementation".  The shared half lives where SPIN finds
it too: the interrupt path is :meth:`repro.hw.host.Host.frame_arrived`,
the link-to-IP assembly :func:`repro.net.link_adapter.link_to_ip`.  What
differs, and all this module holds, is *structure*:

* protocol layers are wired with direct calls (no dispatcher, no guards:
  the monolithic stack pays no dispatch cost -- it also cannot be
  extended),
* applications live in user processes behind the socket layer: every
  send/receive crosses the user/kernel boundary with a trap and a
  per-byte copy, and every delivery to a blocked process costs a wakeup
  plus a context switch (``repro.unixos.sockets``).

The measured differences between :class:`UnixStack` and
:class:`~repro.core.plexus.PlexusStack` are therefore exactly the paper's
claim: operating-system structure, nothing else.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hw.host import Host
from ..hw.nic import NIC
from ..net.headers import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from ..net.icmp import IcmpProto
from ..net.ip import IpProto
from ..net.link_adapter import direct_upcall, link_to_ip
from ..net.tcp import TcpProto
from ..net.udp import UdpProto
from ..sim import Engine
from ..spin.mbuf import MbufPool

__all__ = ["UnixKernel", "UnixStack"]


class UnixKernel(Host):
    """A host running the monolithic OS model."""

    def __init__(self, engine: Engine, name: str, **kwargs):
        super().__init__(engine, name, **kwargs)
        self.mbufs = MbufPool(self)


class UnixStack:
    """The in-kernel protocol stack of the monolithic model."""

    def __init__(self, kernel: UnixKernel, nic: NIC, my_ip: int,
                 link: str = "ethernet",
                 neighbors: Optional[Dict[int, object]] = None):
        self.host = kernel
        self.nic = nic
        self.my_ip = my_ip
        bottom, adapter, self.arp, header_len = link_to_ip(
            kernel, nic, my_ip, link, neighbors)
        self.ethernet, self.rawlink = (
            (bottom, None) if link == "ethernet" else (None, bottom))
        self.ip = IpProto(kernel, my_ip, adapter)
        self.icmp = IcmpProto(kernel, self.ip)
        self.udp = UdpProto(kernel, self.ip)
        self.tcp = TcpProto(kernel, self.ip, name="tcp-unix")

        # -- monolithic wiring: direct calls, no events ---------------------
        bottom.upcall = direct_upcall(self.ip, self.arp, header_len)

        def ip_demux(protocol, m, off, src, dst):
            if protocol == IPPROTO_UDP:
                self.udp.input(m, off, src, dst)
            elif protocol == IPPROTO_TCP:
                self.tcp.input(m, off, src, dst)
            elif protocol == IPPROTO_ICMP:
                self.icmp.input(m, off, src, dst)
        self.ip.upcall = ip_demux

        # The socket layer (repro.unixos.sockets) plugs into udp.upcall and
        # uses self.tcp for connections.
        kernel.register_device_input(nic, bottom.input)

    def __repr__(self) -> str:
        return "<UnixStack %s ip=%s>" % (self.host.name, self.my_ip)
