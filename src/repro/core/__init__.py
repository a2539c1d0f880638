"""Plexus: the paper's extensible protocol architecture."""

from .extension import AppExtension
from .filters import (
    ethertype_guard,
    ip_protocol_guard,
    tcp_port_guard,
    transport_redirect_guard,
    udp_dst_port_guard,
)
from .graph import GraphError, ProtocolGraph
from .manager import (
    AccessError,
    Credential,
    EthernetManager,
    IpManager,
    PortSpace,
    SpoofingError,
    TcpManager,
    UdpEndpoint,
    UdpManager,
)
from .plexus import KERNEL_CREDENTIAL, PlexusStack

__all__ = [
    "AccessError",
    "AppExtension",
    "Credential",
    "EthernetManager",
    "GraphError",
    "IpManager",
    "KERNEL_CREDENTIAL",
    "PlexusStack",
    "PortSpace",
    "ProtocolGraph",
    "SpoofingError",
    "TcpManager",
    "UdpEndpoint",
    "UdpManager",
    "ethertype_guard",
    "ip_protocol_guard",
    "tcp_port_guard",
    "transport_redirect_guard",
    "udp_dst_port_guard",
]
