"""Protocol implementations shared by both operating-system models.

The paper stresses that SPIN/Plexus and DIGITAL UNIX run "the same TCP/IP
implementation and device drivers"; this package is that shared
implementation.  The OS models differ only in *structure*: how packets
travel between these layers (events+guards vs monolithic calls) and how
applications reach them (in-kernel extensions vs sockets).
"""

from .arp import ArpProto
from .checksum import charged_checksum, internet_checksum, verify_checksum
from .ethernet import EthernetProto
from .headers import (
    ARP_HEADER,
    ETHERNET_HEADER,
    ETHER_BROADCAST,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ICMP_HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IP_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    ip_aton,
    ip_ntoa,
    mac_aton,
)
from .http import (
    HttpClientConnection,
    HttpError,
    HttpServerConnection,
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from .icmp import IcmpProto
from .ip import IP_BROADCAST, IpProto
from .link_adapter import RawLinkProto
from .router import Router, RouterInterface
from .tcp import Tcb, TcpListener, TcpProto, TcpState
from .trace import PacketTracer, TraceRecord, decode_frame
from .udp import UdpProto

__all__ = [
    "ARP_HEADER",
    "ArpProto",
    "ETHERNET_HEADER",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IP",
    "ETHER_BROADCAST",
    "EthernetProto",
    "ICMP_HEADER",
    "IPPROTO_ICMP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "IP_BROADCAST",
    "IP_HEADER",
    "IcmpProto",
    "IpProto",
    "RawLinkProto",
    "Router",
    "RouterInterface",
    "TCP_HEADER",
    "Tcb",
    "TcpListener",
    "TcpProto",
    "TcpState",
    "UDP_HEADER",
    "UdpProto",
    "HttpClientConnection",
    "HttpError",
    "HttpServerConnection",
    "PacketTracer",
    "TraceRecord",
    "build_request",
    "build_response",
    "charged_checksum",
    "decode_frame",
    "internet_checksum",
    "ip_aton",
    "ip_ntoa",
    "mac_aton",
    "parse_request",
    "parse_response",
    "verify_checksum",
]
