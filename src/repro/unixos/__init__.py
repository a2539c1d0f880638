"""The DIGITAL UNIX-style monolithic baseline (paper's comparator)."""

from .kernelnet import UnixKernel, UnixStack
from .sockets import Poller, SocketError, SocketLayer, TcpSocket, UdpSocket
from .splice import SpliceForwarder

__all__ = [
    "Poller",
    "SocketError",
    "SocketLayer",
    "SpliceForwarder",
    "TcpSocket",
    "UdpSocket",
    "UnixKernel",
    "UnixStack",
]
