"""A small HTTP/1.0 implementation over the reproduction's TCP.

The paper's conclusion points at a live demonstration of "the protocol
stack as it services HTTP requests"; this module provides that top layer:
request/response parsing plus kernel-level server and client state
machines driven by TCB callbacks (the Plexus side) -- the socket-based
UNIX variants live in ``repro.apps.httpd``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "HttpError",
    "parse_request",
    "parse_response",
    "build_request",
    "build_response",
    "HttpServerConnection",
    "HttpClientConnection",
]

CRLF = b"\r\n"
HEADER_END = b"\r\n\r\n"

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


class HttpError(ValueError):
    """Malformed HTTP traffic."""


def build_request(method: str, path: str, headers: Optional[Dict[str, str]] = None) -> bytes:
    lines = ["%s %s HTTP/1.0" % (method.upper(), path)]
    for key, value in (headers or {}).items():
        lines.append("%s: %s" % (key, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def build_response(status: int, body: bytes,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = ["HTTP/1.0 %d %s" % (status, reason),
             "Content-Length: %d" % len(body)]
    for key, value in (headers or {}).items():
        lines.append("%s: %s" % (key, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def parse_request(data: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Parse a complete request head; returns (method, path, headers)."""
    if HEADER_END not in data:
        raise HttpError("incomplete request head")
    head = data.split(HEADER_END, 1)[0].decode("latin-1")
    lines = head.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError("malformed request line %r" % lines[0])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError("malformed header line %r" % line)
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return parts[0], parts[1], headers


def parse_response(data: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Parse a complete response; returns (status, headers, body)."""
    if HEADER_END not in data:
        raise HttpError("incomplete response head")
    head, body = data.split(HEADER_END, 1)
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError("malformed status line %r" % lines[0])
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", len(body)))
    return status, headers, body[:length]


class HttpServerConnection:
    """Serves one TCP connection from TCB callbacks (kernel context), and
    closes it when the client does."""

    def __init__(self, tcb, router: Callable[[str, str], Tuple[int, bytes]]):
        self.tcb = tcb
        self.router = router
        self.requests_served = 0
        self._buffer = b""
        tcb.on_data = self._on_data
        tcb.on_close = tcb.close

    def _on_data(self, data: bytes) -> None:
        self._buffer += data
        while HEADER_END in self._buffer:
            head, self._buffer = self._buffer.split(HEADER_END, 1)
            try:
                method, path, _headers = parse_request(head + HEADER_END)
                status, body = self.router(method, path)
            except HttpError:
                status, body = 400, b"bad request"
            self.tcb.send(build_response(status, body))
            self.requests_served += 1


class HttpClientConnection:
    """Issues requests over one TCB; responses arrive via callback."""

    def __init__(self, tcb, on_response: Callable[[int, bytes], None]):
        self.tcb = tcb
        self.on_response = on_response
        self._buffer = b""
        tcb.on_data = self._on_data

    def get(self, path: str) -> None:
        """Send a GET (plain code, kernel context)."""
        self.tcb.send(build_request("GET", path))

    def _on_data(self, data: bytes) -> None:
        self._buffer += data
        while HEADER_END in self._buffer:
            head_end = self._buffer.index(HEADER_END) + len(HEADER_END)
            head = self._buffer[:head_end]
            try:
                _status, headers, _ = parse_response(head + b"")
            except HttpError:
                return  # need more data for the status line
            length = int(headers.get("content-length", 0))
            total = head_end + length
            if len(self._buffer) < total:
                return  # body incomplete
            whole = self._buffer[:total]
            self._buffer = self._buffer[total:]
            status, _headers, body = parse_response(whole)
            self.on_response(status, body)
