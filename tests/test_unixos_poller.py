"""Tests for the Poller: register sockets once, wait for the ready ones."""

import pytest

from repro.unixos import Poller, SocketError


class TestPoller:
    def test_returns_ready_udp_socket(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        poller = Poller(bed.hosts[1])

        def server():
            one = bed.sockets[1].udp_socket()
            two = bed.sockets[1].udp_socket()
            yield from one.bind(7001)
            yield from two.bind(7002)
            poller.register(one)
            poller.register(two)
            ready = yield from poller.wait()
            data, _addr = yield from ready[0].recvfrom()
            return ready[0].port, data

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(6000)
            yield from sock.sendto(b"pick me", (bed.ip(1), 7002))
        engine.process(client(), name="client")
        port, data = engine.run_process(server(), name="server")
        assert (port, data) == (7002, b"pick me")

    def test_immediate_return_when_already_ready(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        poller = Poller(bed.hosts[1])

        def server():
            sock = bed.sockets[1].udp_socket()
            yield from sock.bind(7001)
            # Let a datagram arrive first.
            yield engine.timeout(5_000.0)
            started = engine.now
            poller.register(sock)
            ready = yield from poller.wait()
            return ready, engine.now - started

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(6000)
            yield from sock.sendto(b"early", (bed.ip(1), 7001))
        engine.process(client(), name="client")
        ready, waited = engine.run_process(server(), name="server")
        assert len(ready) == 1
        assert waited < 500.0  # no blocking, just the syscall cost

    def test_multiplexes_udp_and_tcp_listener(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        poller = Poller(bed.hosts[1])
        events = []

        def server():
            udp = bed.sockets[1].udp_socket()
            yield from udp.bind(7001)
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            poller.register(udp)
            poller.register(listener)
            for _ in range(2):
                ready = yield from poller.wait()
                for sock in ready:
                    if sock is udp:
                        data, _ = yield from udp.recvfrom()
                        events.append(("udp", data))
                    else:
                        conn = yield from listener.accept()
                        events.append(("tcp", conn.tcb.raddr))

        def client():
            udp = bed.sockets[0].udp_socket()
            yield from udp.bind(6000)
            yield from udp.sendto(b"dgram", (bed.ip(1), 7001))
            tcp = bed.sockets[0].tcp_socket()
            yield from tcp.connect((bed.ip(1), 8000))
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run(until=engine.now + 100_000.0)
        assert ("udp", b"dgram") in events
        assert ("tcp", bed.ip(0)) in events

    def test_tcp_eof_is_readable(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        poller = Poller(bed.hosts[1])
        outcome = []

        def server():
            listener = bed.sockets[1].tcp_socket()
            yield from listener.listen(8000)
            conn = yield from listener.accept()
            poller.register(conn)
            ready = yield from poller.wait()
            data = yield from conn.recv()
            outcome.append((bool(ready), data))

        def client():
            sock = bed.sockets[0].tcp_socket()
            yield from sock.connect((bed.ip(1), 8000))
            yield from sock.close()
        engine.process(server(), name="server")
        engine.run_process(client(), name="client")
        engine.run(until=engine.now + 200_000.0)
        assert outcome == [(True, b"")]

    def test_empty_socket_list_rejected(self, unix_pair):
        poller = Poller(unix_pair.hosts[0])
        with pytest.raises(SocketError):
            next(poller.wait())

    def test_poll_charges_a_trap(self, unix_pair):
        bed = unix_pair
        engine = bed.engine
        host = bed.hosts[1]
        poller = Poller(host)

        def server():
            sock = bed.sockets[1].udp_socket()
            yield from sock.bind(7001)
            yield engine.timeout(1_000.0)
            before = host.cpu.busy_time
            poller.register(sock)
            yield from poller.wait()
            return host.cpu.busy_time - before

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(6000)
            yield from sock.sendto(b"x", (bed.ip(1), 7001))
        engine.process(client(), name="client")
        cost = engine.run_process(server(), name="server")
        assert cost >= host.costs.syscall_trap
