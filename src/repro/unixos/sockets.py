"""BSD sockets over the monolithic stack: the user/kernel boundary.

This is where the DIGITAL UNIX model pays what Plexus avoids (paper
sections 1, 4.1):

* every syscall charges a trap (``syscall_trap``) plus socket-layer
  bookkeeping (``socket_layer``),
* every byte sent is copied in (``copy_per_byte``), every byte received
  is copied out,
* a process blocked in ``recv`` costs a wakeup (charged in the interrupt
  path that delivers the packet) plus a context switch (charged when the
  process resumes).

The API is generator-based: socket calls are ``yield from``-ed inside a
simulation process, which *is* the user process.  The per-call and the
per-delivery charges are booked in place (``stack[-1] += a; times[k] +=
a``), in a syscall's kernel path or in the protocol code that delivers.

Simplifying assumptions, documented: one blocking reader per socket at a
time is the intended use (extra waiters are resumed and re-block), and
UDP sockets are demultiplexed by destination port only.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..net.tcp import Tcb, TcpState
from ..sim import Signal
from .kernelnet import UnixStack

__all__ = ["SocketLayer", "UdpSocket", "TcpSocket", "SocketError",
           "Poller"]

Address = Tuple[int, int]  # (ip, port)


class SocketError(OSError):
    """Socket-layer errors (port in use, connection refused...)."""


class _SockBuf:
    """A socket receive buffer: queued (data, address) records."""

    __slots__ = ("items", "bytes", "limit", "readable", "drops")

    def __init__(self, engine, limit: int = 64 * 1024):
        self.items: List[Tuple[bytes, Address]] = []
        self.bytes = 0
        self.limit = limit
        self.readable = Signal(engine)
        self.drops = 0

    def append(self, data: bytes, addr: Address) -> bool:
        if self.bytes + len(data) > self.limit:
            self.drops += 1
            return False
        self.items.append((data, addr))
        self.bytes += len(data)
        return True

    def pop(self, max_bytes: Optional[int] = None) -> Tuple[bytes, Address]:
        data, addr = self.items.pop(0)
        if max_bytes is not None and len(data) > max_bytes:
            rest = data[max_bytes:]
            data = data[:max_bytes]
            self.items.insert(0, (rest, addr))
            self.bytes -= max_bytes
        else:
            self.bytes -= len(data)
        return data, addr


class SocketLayer:
    """The per-host socket registry, plugged into the monolithic stack."""

    def __init__(self, stack: UnixStack):
        self.stack = stack
        self.host = stack.host
        #: the interface MTU a process can ask for (SIOCGIFMTU)
        self.mtu = stack.ip.lower.mtu
        self.udp_pcbs: Dict[int, "UdpSocket"] = {}
        self._next_udp_port = 32768
        stack.udp.upcall = self._udp_deliver

    # -- socket creation ------------------------------------------------

    def udp_socket(self) -> "UdpSocket":
        return UdpSocket(self)

    def tcp_socket(self) -> "TcpSocket":
        return TcpSocket(self)

    # -- UDP demux (kernel side; runs in the interrupt path) -----------------

    def _udp_deliver(self, m, off, src_ip, src_port, dst_ip, dst_port) -> None:
        sock = self.udp_pcbs.get(dst_port)
        if sock is None:
            return  # no PCB: datagram dropped (ICMP unreachable elided)
        costs = self.host.costs
        cpu = self.host.cpu
        cpu._stack[-1] += costs.sockbuf_enqueue
        cpu.category_times["socket"] += costs.sockbuf_enqueue
        payload = bytes(memoryview(m._storage)[m.off + off:m.off + m.len])
        if sock.buffer.append(payload, (src_ip, src_port)):
            if sock.buffer.readable.waiters:
                cpu._stack[-1] += costs.process_wakeup
                cpu.category_times["sched"] += costs.process_wakeup
            sock.buffer.readable.fire()

    def allocate_udp_port(self) -> int:
        for _ in range(0x10000 - 32768):
            port = self._next_udp_port
            self._next_udp_port += 1
            if self._next_udp_port > 0xFFFF:
                self._next_udp_port = 32768
            if port not in self.udp_pcbs:
                return port
        raise SocketError("out of UDP ports")


class _SocketBase:
    # Slotted (base + both subclasses): mega-scale workloads keep one or
    # two live sockets per flow, so per-instance dicts dominate KB per flow.
    __slots__ = ("layer", "host", "stack", "closed")

    def __init__(self, layer: SocketLayer):
        self.layer = layer
        self.host = layer.host
        self.stack = layer.stack
        self.closed = False

    def _syscall(self, work: Callable[[], object]) -> Generator:
        """One syscall: trap + socket bookkeeping + ``work`` in the kernel."""
        host = self.host

        def body():
            costs = host.costs
            stack = host.cpu._stack
            times = host.cpu.category_times
            stack[-1] += costs.syscall_trap
            times["syscall"] += costs.syscall_trap
            stack[-1] += costs.socket_layer
            times["socket"] += costs.socket_layer
            return work()
        return host.kernel_path(body)

    def _block_on(self, signal: Signal) -> Generator:
        """Sleep until ``signal`` fires, then pay the context switch."""
        event = signal.wait()
        yield event
        costs = self.host.costs
        yield from self.host.kernel_path(
            lambda: self.host.cpu.charge(costs.context_switch, "sched"))


class UdpSocket(_SocketBase):
    """A datagram socket."""

    __slots__ = ("port", "buffer")

    def __init__(self, layer: SocketLayer):
        super().__init__(layer)
        self.port: Optional[int] = None
        self.buffer = _SockBuf(self.host.engine)

    def bind(self, port: Optional[int] = None) -> Generator:
        """Bind to ``port`` (or an ephemeral one).  Returns the port."""
        def work():
            chosen = port if port is not None else self.layer.allocate_udp_port()
            if chosen in self.layer.udp_pcbs:
                raise SocketError("UDP port %d in use" % chosen)
            self.layer.udp_pcbs[chosen] = self
            self.port = chosen
            return chosen
        result = yield from self._syscall(work)
        return result

    def sendto(self, data: bytes, addr: Address, checksum: bool = True) -> Generator:
        """Send one datagram; charges the user->kernel copy."""
        if self.port is None:
            yield from self.bind()

        def work():
            cpu = self.host.cpu
            copy = len(data) * self.host.costs.copy_per_byte
            cpu._stack[-1] += copy
            cpu.category_times["copyin"] += copy
            m = self.host.mbufs.from_bytes(data, leading_space=64)
            self.stack.udp.output(m, src_port=self.port, dst_ip=addr[0],
                                  dst_port=addr[1], checksum=checksum)
        yield from self._syscall(work)

    def recvfrom(self) -> Generator:
        """Block until a datagram arrives; returns ``(data, (ip, port))``."""
        if self.port is None:
            raise SocketError("recvfrom on an unbound socket")
        yield from self._syscall(lambda: None)
        while not self.buffer.items:
            yield from self._block_on(self.buffer.readable)
        data, addr = self.buffer.pop()

        def copyout():
            cpu = self.host.cpu
            copy = len(data) * self.host.costs.copy_per_byte
            cpu._stack[-1] += copy
            cpu.category_times["copyout"] += copy
        yield from self.host.kernel_path(copyout)
        return data, addr

    def close(self) -> None:
        if self.port is not None:
            self.layer.udp_pcbs.pop(self.port, None)
            self.port = None
        self.closed = True


class TcpSocket(_SocketBase):
    """A stream socket wrapping a kernel TCB."""

    __slots__ = ("tcb", "buffer", "connected", "sendable", "accept_queue",
                 "acceptable", "peer_closed", "_listener", "_was_established")

    def __init__(self, layer: SocketLayer, tcb: Optional[Tcb] = None):
        super().__init__(layer)
        self.tcb = tcb
        self.buffer = _SockBuf(self.host.engine, limit=Tcb.DEFAULT_BUF)
        self.connected = Signal(self.host.engine)
        self.sendable = Signal(self.host.engine)
        self.accept_queue: List["TcpSocket"] = []
        self.acceptable = Signal(self.host.engine)
        self.peer_closed = False
        self._listener = None
        self._was_established = False
        if tcb is not None:
            self._attach(tcb)

    # -- kernel-side callbacks (run in interrupt context) -------------------

    def _attach(self, tcb: Tcb) -> None:
        self.tcb = tcb
        # Accepted children attach established (or later); the latch must
        # reflect that, because `connect`'s wait loop keys off it.
        self._was_established = tcb.state not in (
            TcpState.SYN_SENT, TcpState.SYN_RCVD, TcpState.CLOSED)
        tcb.auto_consume = False
        tcb.on_data = self._on_data
        tcb.on_close = self._on_close
        tcb.on_reset = self._on_reset
        tcb.on_sendable = self._on_sendable
        tcb.on_established = self._on_established

    def _on_data(self, data: bytes) -> None:
        costs = self.host.costs
        cpu = self.host.cpu
        cpu._stack[-1] += costs.sockbuf_enqueue
        cpu.category_times["socket"] += costs.sockbuf_enqueue
        self.buffer.append(data, (self.tcb.raddr, self.tcb.rport))
        if self.buffer.readable.waiters:
            cpu._stack[-1] += costs.process_wakeup
            cpu.category_times["sched"] += costs.process_wakeup
        self.buffer.readable.fire()

    def _on_close(self) -> None:
        self.peer_closed = True
        self.buffer.readable.fire()

    def _on_reset(self) -> None:
        self.peer_closed = True
        self.buffer.readable.fire()
        self.connected.fire(False)
        self.sendable.fire(0)   # a blocked send() raises "connection reset"

    def _on_sendable(self, space: int) -> None:
        if self.sendable.waiters:
            cpu = self.host.cpu
            cpu._stack[-1] += self.host.costs.process_wakeup
            cpu.category_times["sched"] += self.host.costs.process_wakeup
        self.sendable.fire(space)

    def _on_established(self) -> None:
        self._was_established = True
        self.connected.fire(True)

    # -- user API ------------------------------------------------------------------

    def connect(self, addr: Address) -> Generator:
        """Active open; blocks until established (or reset)."""
        def work():
            tcb = self.stack.tcp.connect(addr[0], addr[1])
            self._attach(tcb)
        yield from self._syscall(work)
        # Key off the latch, not the live state: under load the peer can
        # push data and FIN before this process runs again, leaving the
        # TCB in CLOSE_WAIT -- established in the past, never again
        # ESTABLISHED at an instant this loop observes.
        while not self._was_established and self.tcb.state != TcpState.CLOSED:
            yield from self._block_on(self.connected)
        if not self._was_established:
            raise SocketError("connection refused")

    def listen(self, port: int, backlog: int = 8) -> Generator:
        def work():
            def on_accept(tcb: Tcb) -> None:
                # The connection gets its socket when the kernel accepts
                # it (BSD's sonewconn), so a segment or FIN landing before
                # accept() is buffered, not consumed with no reader.
                self.accept_queue.append(TcpSocket(self.layer, tcb))
                if self.acceptable.waiters:
                    cpu = self.host.cpu
                    cpu._stack[-1] += self.host.costs.process_wakeup
                    cpu.category_times["sched"] += self.host.costs.process_wakeup
                self.acceptable.fire()
            self._listener = self.stack.tcp.listen(port, on_accept, backlog)
        yield from self._syscall(work)

    def accept(self) -> Generator:
        """Block for an established connection; returns its TcpSocket."""
        if self._listener is None:
            raise SocketError("accept on a non-listening socket")
        yield from self._syscall(lambda: None)
        while not self.accept_queue:
            yield from self._block_on(self.acceptable)
        return self.accept_queue.pop(0)

    def send(self, data: bytes) -> Generator:
        """Send all of ``data``, blocking for buffer space as needed."""
        if self.tcb is None:
            raise SocketError("send on an unconnected socket")
        if self.closed:
            raise SocketError("send on a closed socket")   # BSD's EPIPE
        offset = 0
        while offset < len(data):
            chunk = data[offset:]

            def work(chunk=chunk):
                if self.tcb.state is TcpState.CLOSED:   # reset, or timed out
                    raise SocketError("connection reset")
                accepted = self.tcb.send(chunk)
                cpu = self.host.cpu
                copy = accepted * self.host.costs.copy_per_byte
                cpu._stack[-1] += copy
                cpu.category_times["copyin"] += copy
                return accepted
            accepted = yield from self._syscall(work)
            offset += accepted
            if offset < len(data) and accepted == 0:
                yield from self._block_on(self.sendable)
        return len(data)

    def recv(self, max_bytes: int = 65536) -> Generator:
        """Block for data; returns b"" at orderly close."""
        if self.tcb is None:
            raise SocketError("recv on an unconnected socket")
        yield from self._syscall(lambda: None)
        while not self.buffer.items:
            if self.peer_closed:
                return b""
            yield from self._block_on(self.buffer.readable)
        data, _addr = self.buffer.pop(max_bytes)

        def copyout():
            cpu = self.host.cpu
            copy = len(data) * self.host.costs.copy_per_byte
            cpu._stack[-1] += copy
            cpu.category_times["copyout"] += copy
            self.tcb.app_consumed(len(data))
        yield from self.host.kernel_path(copyout)
        return data

    def close(self) -> Generator:
        def work():
            if self._listener is not None:
                self._listener.close()
            if self.tcb is not None:
                self.tcb.close()
        yield from self._syscall(work)
        self.closed = True


class Poller:
    """A persistent, kqueue-like readiness multiplexer over sockets.

    :meth:`register` subscribes the poller once to each socket's
    readiness signals; a delivery *marks* its socket in an ordered ready
    set and fires one wake signal.  :meth:`wait` then touches only marked
    sockets, so a server watching thousands of mostly-idle flows pays per
    event, not per registered socket per wakeup.

    A socket is readable when its receive buffer holds data, its peer
    has closed (TCP), or a connection is waiting to be accepted
    (listener).  Readiness is level-triggered: a marked socket stays in
    the ready set until a wait finds it drained.  Each wait charges one
    trap, like the real kevent(2).
    """

    def __init__(self, host):
        self.host = host
        #: sock -> [(signal, callback), ...] subscriptions to undo.
        self._watched: Dict[object, List] = {}
        #: insertion-ordered set of sockets marked since their last drain.
        self._ready: Dict[object, None] = {}
        self._wake = Signal(host.engine)

    @staticmethod
    def _is_readable(sock) -> bool:
        if getattr(sock, "buffer", None) is not None and sock.buffer.items:
            return True
        if getattr(sock, "peer_closed", False):
            return True
        if getattr(sock, "accept_queue", None):
            return True
        return False

    def _readiness_signals(self, sock):
        signals = []
        if getattr(sock, "buffer", None) is not None:
            signals.append(sock.buffer.readable)
        if getattr(sock, "acceptable", None) is not None:
            signals.append(sock.acceptable)
        return signals

    def register(self, sock) -> None:
        """Watch ``sock`` until :meth:`unregister`.  Plain code, O(1)."""
        if sock in self._watched:
            return

        def mark(_value=None, sock=sock):
            self._mark(sock, charging=True)
        subscriptions = []
        for signal in self._readiness_signals(sock):
            signal.subscribe(mark)
            subscriptions.append((signal, mark))
        self._watched[sock] = subscriptions
        if self._is_readable(sock):
            # Ready before registration: mark without charging -- we are
            # not necessarily inside a kernel charge context here, and no
            # delivery happened to bill the wakeup to.
            self._mark(sock, charging=False)

    def unregister(self, sock) -> None:
        subscriptions = self._watched.pop(sock, None)
        if subscriptions is None:
            return
        for signal, callback in subscriptions:
            signal.unsubscribe(callback)
        self._ready.pop(sock, None)

    def _mark(self, sock, charging: bool) -> None:
        self._ready[sock] = None
        wake = self._wake
        if wake.waiters:
            if charging:
                # Runs inside the sender's kernel path (signal subscribers
                # fire synchronously): the wakeup of the blocked poller is
                # billed to the delivery that caused it, exactly where the
                # per-socket waiter used to bill it.
                cpu = self.host.cpu
                cpu._stack[-1] += self.host.costs.process_wakeup
                cpu.category_times["sched"] += self.host.costs.process_wakeup
            wake.fire()

    def wait(self) -> Generator:
        """Block until a registered socket is ready; returns the ready list.

        The returned list is in mark order (oldest event first).  Work is
        proportional to the number of marked sockets only.
        """
        if not self._watched:
            raise SocketError("wait() on a poller with nothing registered")
        costs = self.host.costs
        yield from self.host.kernel_path(
            lambda: self.host.cpu.charge(costs.syscall_trap, "syscall"))
        while True:
            ready = []
            stale = []
            for sock in self._ready:
                if self._is_readable(sock):
                    ready.append(sock)
                else:
                    stale.append(sock)  # drained since it was marked
            for sock in stale:
                del self._ready[sock]
            if ready:
                return ready
            yield self._wake.wait()
            yield from self.host.kernel_path(
                lambda: self.host.cpu.charge(costs.context_switch, "sched"))
