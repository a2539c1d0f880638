"""Tests for the monolithic baseline: sockets, boundary costs, splice."""

import pytest

from repro.net.tcp import TcpState
from repro.unixos import SocketError, SpliceForwarder


class TestUdpSockets:
    def test_sendto_recvfrom(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        results = []

        def server():
            sock = bed.sockets[1].udp_socket()
            yield from sock.bind(7000)
            data, addr = yield from sock.recvfrom()
            results.append((data, addr))

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(7001)
            yield from sock.sendto(b"across the boundary", (bed.ip(1), 7000))
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run()
        assert results == [(b"across the boundary", (bed.ip(0), 7001))]

    def test_bind_conflict(self, unix_pair):
        bed = unix_pair
        engine = bed.engine

        def proc():
            one = bed.sockets[0].udp_socket()
            yield from one.bind(7000)
            two = bed.sockets[0].udp_socket()
            try:
                yield from two.bind(7000)
            except SocketError:
                return "conflict"
        assert engine.run_process(proc()) == "conflict"

    def test_bind_after_a_failed_bind(self, unix_pair):
        """The failed bind's syscall path raised on the CPU; it must give
        the CPU back, or the next syscall queues behind it forever."""
        bed = unix_pair
        engine = bed.engine

        def proc():
            one = bed.sockets[0].udp_socket()
            yield from one.bind(7000)
            two = bed.sockets[0].udp_socket()
            with pytest.raises(SocketError, match="in use"):
                yield from two.bind(7000)
            port = yield from two.bind(7001)
            return port, bed.hosts[0].cpu.held
        assert engine.run_process(proc()) == (7001, False)

    def test_failed_bind_takes_its_simulated_time(self, unix_pair):
        """A syscall path that raises still holds the CPU for what it
        charged: the clock and ``busy_time`` move by the charge, exactly
        as for a good bind.  (The failed path used to release the CPU at
        once, so its charge was booked but never consumed.)"""
        bed = unix_pair
        engine = bed.engine
        cpu = bed.hosts[0].cpu

        def timed(bind):
            charged = sum(cpu.category_times.values())
            busy, now = cpu.busy_time, engine.now
            try:
                yield from bind
            except SocketError:
                pass
            return (sum(cpu.category_times.values()) - charged,
                    cpu.busy_time - busy, engine.now - now)

        def proc():
            good = yield from timed(bed.sockets[0].udp_socket().bind(7000))
            bad = yield from timed(bed.sockets[0].udp_socket().bind(7000))
            return good, bad
        good, bad = engine.run_process(proc())
        assert good[0] > 0
        assert bad == pytest.approx(good)
        assert bad[1] == pytest.approx(bad[0])
        assert bad[2] == pytest.approx(bad[0])

    def test_ephemeral_bind(self, unix_pair):
        bed = unix_pair
        engine = bed.engine

        def proc():
            sock = bed.sockets[0].udp_socket()
            port = yield from sock.bind()
            return port
        assert engine.run_process(proc()) >= 32768

    def test_recv_on_unbound_rejected(self, unix_pair):
        sock = unix_pair.sockets[0].udp_socket()
        with pytest.raises(SocketError):
            next(sock.recvfrom())

    def test_close_releases_port(self, unix_pair):
        bed = unix_pair
        engine = bed.engine

        def proc():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(7000)
            sock.close()
            again = bed.sockets[0].udp_socket()
            yield from again.bind(7000)
            return "rebound"
        assert engine.run_process(proc()) == "rebound"

    def test_datagram_to_unbound_port_dropped(self, unix_pair):
        bed = unix_pair
        engine = bed.engine

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(7001)
            yield from sock.sendto(b"nobody home", (bed.ip(1), 9999))
            return "sent"
        assert engine.run_process(client()) == "sent"
        engine.run()

    def test_syscall_costs_charged(self, unix_pair):
        """Every socket operation pays the trap + copy costs."""
        bed = unix_pair
        engine = bed.engine
        host = bed.hosts[0]
        payload = bytes(10_000)

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(7001)
            before = host.cpu.busy_time
            yield from sock.sendto(payload, (bed.ip(1), 7000))
            return host.cpu.busy_time - before
        cost = engine.run_process(client())
        floor = (host.costs.syscall_trap + host.costs.socket_layer +
                 len(payload) * host.costs.copy_per_byte)
        assert cost >= floor


class TestTcpSockets:
    def _echo_server(self, bed, port=8000):
        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(port)
            conn = yield from listener.accept()
            while True:
                data = yield from conn.recv()
                if not data:
                    yield from conn.close()
                    return
                yield from conn.send(data)
        bed.engine.process(server(), name="echo-server")

    def test_connect_send_recv(self, unix_pair):
        bed = unix_pair
        self._echo_server(bed)
        engine = bed.engine

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.send(b"echo me")
            data = yield from sock.recv()
            yield from sock.close()
            return data
        assert engine.run_process(client()) == b"echo me"

    def test_connect_refused(self, unix_pair):
        bed = unix_pair
        engine = bed.engine

        def client():
            sock = bed.sockets[0].tcp_socket()
            try:
                yield from sock.connect((bed.ip(1), 9999))
            except SocketError:
                return "refused"
        assert engine.run_process(client()) == "refused"

    def test_bulk_transfer(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        payload = bytes(range(256)) * 400  # 102400 bytes
        received = []

        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            conn = yield from listener.accept()
            total = 0
            while total < len(payload):
                data = yield from conn.recv()
                if not data:
                    break
                received.append(data)
                total += len(data)

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.send(payload)
            yield from sock.close()
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run(until=engine.now + 1_000_000.0)
        assert b"".join(received) == payload

    def test_recv_returns_empty_at_eof(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        outcome = []

        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            conn = yield from listener.accept()
            data = yield from conn.recv()
            outcome.append(data)

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.close()
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run(until=engine.now + 200_000.0)
        assert outcome == [b""]

    def test_data_and_fin_landing_before_accept_are_buffered(self, unix_pair):
        """The connection's socket exists from the kernel's acceptance:
        bytes and a FIN that arrive before the server calls accept() are
        read afterwards, not consumed by a TCB with no reader."""
        bed = unix_pair
        engine = bed.engine
        read = []

        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            yield engine.timeout(100_000.0)     # the whole stream lands first
            conn = yield from listener.accept()
            while True:
                data = yield from conn.recv()
                read.append(data)
                if not data:
                    return

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.send(b"before accept")
            yield from sock.close()
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run(until=engine.now + 500_000.0)
        assert read == [b"before accept", b""]

    def _reset_under_send(self, bed, blocked):
        """The server accepts, never reads, and aborts its end 200 ms
        later.  The client sends 1 MB at once (``blocked``: the send is
        blocked for buffer space at the reset) or 8 bytes at 400 ms.
        ``(what the send raised, whether the client is still alive, the
        client's TCB)``."""
        engine = bed.engine
        raised = []

        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            conn = yield from listener.accept()
            yield engine.timeout(200_000.0)
            yield from bed.hosts[1].kernel_path(conn.tcb.abort)

        sock = bed.sockets[0].tcp_socket()

        def client():
            yield from sock.connect((bed.ip(1), 8000))
            if not blocked:
                yield engine.timeout(400_000.0)
            try:
                yield from sock.send(bytes(1_000_000 if blocked else 8))
            except Exception as exc:    # noqa: BLE001 - the type is checked
                raised.append((type(exc).__name__, str(exc)))
        engine.process(server(), name="server")
        process = engine.process(client(), name="client")
        engine.run(until=2_000_000.0)
        return raised, process.is_alive, sock.tcb

    def test_a_reset_wakes_a_sender_blocked_for_buffer_space(self, unix_pair):
        """The reset fired ``readable`` and ``connected`` but not
        ``sendable``: the sender stayed blocked for ever, its TCB CLOSED
        with one ``sendable`` waiter."""
        raised, alive, tcb = self._reset_under_send(unix_pair, True)
        assert tcb.state is TcpState.CLOSED and tcb.snd_buf
        assert raised == [("SocketError", "connection reset")]
        assert not alive

    def test_a_send_after_a_reset_is_a_socket_error(self, unix_pair):
        """It was the TCB's ``RuntimeError("send() in state CLOSED")``."""
        raised, alive, _tcb = self._reset_under_send(unix_pair, False)
        assert raised == [("SocketError", "connection reset")]
        assert not alive

    def test_a_send_after_close_is_a_socket_error(self, unix_pair):
        """BSD's EPIPE.  It was the TCB's ``RuntimeError("send() in state
        FIN_WAIT_1")``."""
        bed = unix_pair
        self._echo_server(bed)

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.close()
            with pytest.raises(SocketError, match="closed"):
                yield from sock.send(b"late")
        bed.engine.run_process(client())

    def test_accept_without_listen_rejected(self, unix_pair):
        sock = unix_pair.sockets[0].tcp_socket()
        with pytest.raises(SocketError):
            next(sock.accept())


class TestSplice:
    def test_splice_forwards_both_directions(self):
        """The user-level forwarder moves data but is not end-to-end."""
        from repro.bench.testbed import build_testbed
        bed = build_testbed("unix", "ethernet", n_hosts=3)
        engine = bed.engine
        # Host 0 = client, host 1 = forwarder, host 2 = backend.
        splice = SpliceForwarder(bed.sockets[1], 8080, bed.ip(2), 8081)
        splice.start()

        def backend():
            listener = bed.sockets[2].tcp_socket()
            yield from listener.listen(8081)
            conn = yield from listener.accept()
            data = yield from conn.recv()
            yield from conn.send(b"re:" + data)
        engine.process(backend(), name="backend")

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8080))
            yield from sock.send(b"hi")
            reply = yield from sock.recv()
            return reply, sock.tcb.raddr
        reply, peer = engine.run_process(client(), name="client")
        assert reply == b"re:hi"
        assert splice.connections_spliced == 1
        assert splice.bytes_forwarded >= 4
        # The client's TCP peer is the forwarder, NOT the backend: the
        # paper's "unable to respect end-to-end semantics".
        assert peer == bed.ip(1)
