"""The user-level socket-splice forwarder (paper section 5.2).

"We have implemented a similar service using DIGITAL UNIX with a
user-level process that splices together an incoming and outgoing
socket."  Every forwarded byte makes two trips through the protocol stack
and is twice copied across the user/kernel boundary; connection
establishment and teardown are *not* end-to-end (the forwarder completes
the client handshake itself before the backend connection even exists),
and the backend's congestion/window state is invisible to the client --
the semantic deficiencies the paper calls out.
"""

from __future__ import annotations

from typing import Generator

from .sockets import SocketLayer, TcpSocket

__all__ = ["SpliceForwarder"]


class SpliceForwarder:
    """A user-level TCP port forwarder."""

    def __init__(self, layer: SocketLayer, listen_port: int,
                 backend_ip: int, backend_port: int):
        self.layer = layer
        self.host = layer.host
        self.listen_port = listen_port
        self.backend_ip = backend_ip
        self.backend_port = backend_port
        self.connections_spliced = 0
        self.bytes_forwarded = 0

    def start(self) -> None:
        self.host.engine.process(self._accept_loop(), name="splice-accept")

    def _accept_loop(self) -> Generator:
        listener = self.layer.tcp_socket()
        yield from listener.listen(self.listen_port)
        while True:
            client = yield from listener.accept()
            self.host.engine.process(self._splice(client), name="splice-conn")

    def _splice(self, client: TcpSocket) -> Generator:
        backend = self.layer.tcp_socket()
        yield from backend.connect((self.backend_ip, self.backend_port))
        self.connections_spliced += 1
        self.host.engine.process(
            self._pump(client, backend), name="splice-c2b")
        self.host.engine.process(
            self._pump(backend, client), name="splice-b2c")
        return None

    def _pump(self, src: TcpSocket, dst: TcpSocket) -> Generator:
        """Copy bytes one way until EOF: recv (copyout) + send (copyin)."""
        while True:
            data = yield from src.recv()
            if not data:
                yield from dst.close()
                return
            self.bytes_forwarded += len(data)
            yield from dst.send(data)
