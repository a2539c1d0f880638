"""HTTP service over the extensible protocol graph (paper's live demo workload).

:class:`SpinHttpServer` is an in-kernel extension, linked against a
host's app domain: requests are parsed and answered entirely inside TCB
callbacks, with no boundary crossings.
:class:`UnixHttpServer` is the conventional user-level daemon.
:class:`SpinHttpClient` / :func:`unix_http_get` are the matching clients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core.manager import Credential
from ..net.http import (
    HttpClientConnection,
    HttpServerConnection,
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from ..unixos.sockets import SocketLayer

__all__ = ["SpinHttpServer", "SpinHttpClient", "UnixHttpServer",
           "unix_http_get", "static_router"]

HTTP_PORT = 80


def static_router(pages: Dict[str, bytes]) -> Callable[[str, str], Tuple[int, bytes]]:
    """A router serving a static page table (404 otherwise)."""

    def route(method: str, path: str) -> Tuple[int, bytes]:
        if method != "GET":
            return 400, b"only GET is served"
        body = pages.get(path)
        if body is None:
            return 404, b"not found"
        return 200, body

    return route


class SpinHttpServer:
    """The in-kernel HTTP server extension (app domain)."""

    NAME = "httpd"
    IMPORTS = ["TCP.Listen"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 pages: Dict[str, bytes], port: int = HTTP_PORT):
        self.router = static_router(pages)
        self.connections: List[HttpServerConnection] = []
        server = self

        def on_accept(tcb):
            server.connections.append(HttpServerConnection(tcb, server.router))

        self.listener = env["TCP.Listen"](credential, port, on_accept)

    def uninstall(self) -> None:  # connections already accepted run on
        self.listener.uninstall()

    @property
    def requests_served(self) -> int:
        return sum(conn.requests_served for conn in self.connections)


class SpinHttpClient:
    """An in-kernel HTTP client extension (app domain)."""

    NAME = "http-client"
    IMPORTS = ["TCP.Connect", "Kernel.Path", "Kernel.Defer", "Kernel.Signal",
               "Kernel.Start"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 server_ip: int, port: int = HTTP_PORT):
        self.credential = credential
        self._connect = env["TCP.Connect"]
        self._path = env["Kernel.Path"]
        self._defer = env["Kernel.Defer"]
        self._signal = env["Kernel.Signal"]
        self._start = env["Kernel.Start"]
        self._conn: Optional[HttpClientConnection] = None
        self._server_ip = server_ip
        self._port = port

    def fetch(self, path: str) -> Generator:
        """Connect (once) and GET ``path``; returns (status, body).

        A generator to run in a simulation process.
        """
        got = self._signal()
        defer = self._defer

        def on_response(status: int, body: bytes) -> None:
            defer(lambda: got.fire((status, body)))

        if self._conn is None:
            established = self._signal()

            def start():
                tcb = self._connect(self.credential, self._server_ip, self._port)
                tcb.on_established = lambda: defer(established.fire)
                self._conn = HttpClientConnection(tcb, on_response)
            yield from self._path(start)
            yield established.wait()
        else:
            self._conn.on_response = on_response
        waiter = got.wait()
        yield from self._path(lambda: self._conn.get(path))
        result = yield waiter
        return result

    def uninstall(self) -> None:  # close the connection in a kernel path of its own
        if self._conn is not None:
            self._start(self._path(self._conn.tcb.close), name="http-client-close")
            self._conn = None


class UnixHttpServer:
    """A conventional user-level HTTP daemon."""

    def __init__(self, sockets: SocketLayer, pages: Dict[str, bytes],
                 port: int = HTTP_PORT):
        self.sockets = sockets
        self.router = static_router(pages)
        self.requests_served = 0
        sockets.host.engine.process(self._accept_loop(port), name="httpd")

    def _accept_loop(self, port: int) -> Generator:
        listener = self.sockets.tcp_socket()
        yield from listener.listen(port)
        while True:
            conn = yield from listener.accept()
            self.sockets.host.engine.process(
                self._serve(conn), name="httpd-conn")

    def _serve(self, conn) -> Generator:
        buffer = b""
        while True:
            data = yield from conn.recv()
            if not data:
                yield from conn.close()
                return
            buffer += data
            while b"\r\n\r\n" in buffer:
                head, buffer = buffer.split(b"\r\n\r\n", 1)
                try:
                    method, path, _headers = parse_request(head + b"\r\n\r\n")
                    status, body = self.router(method, path)
                except Exception:
                    status, body = 400, b"bad request"
                yield from conn.send(build_response(status, body))
                self.requests_served += 1


def unix_http_get(sockets: SocketLayer, server_ip: int, path: str,
                  port: int = HTTP_PORT) -> Generator:
    """One-shot user-level GET; returns (status, body)."""
    sock = sockets.tcp_socket()
    yield from sock.connect((server_ip, port))
    yield from sock.send(build_request("GET", path))
    buffer = b""
    while True:
        data = yield from sock.recv()
        if not data:
            break
        buffer += data
        if b"\r\n\r\n" in buffer:
            head, rest = buffer.split(b"\r\n\r\n", 1)
            headers_text = head.decode("latin-1")
            length = 0
            for line in headers_text.split("\r\n")[1:]:
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            if len(rest) >= length:
                break
    yield from sock.close()
    status, _headers, body = parse_response(buffer)
    return status, body
