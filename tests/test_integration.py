"""Cross-system integration scenarios.

Full-stack flows that exercise several subsystems at once: both OS models
against each other's claims, all three devices, and mixed workloads.
"""

import contextlib

import pytest

from repro.bench.testbed import build_testbed
from repro.core import Credential
from repro.lang import ephemeral
from repro.sim import Signal
from twins import scan


@ephemeral
def _noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


@pytest.mark.parametrize("device", ["ethernet", "atm", "t3"])
class TestAllDevices:
    def test_spin_udp_roundtrip(self, device):
        bed = build_testbed("spin", device)
        engine = bed.engine
        got = Signal(engine)
        server_ep = None

        @ephemeral
        def echo(m, off, src_ip, src_port, dst_ip, dst_port):
            server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)
        server_ep = bed.stacks[1].udp_manager.bind(
            Credential("srv"), 7000, echo)
        seen = []
        host = bed.hosts[0]

        @ephemeral
        def recv(m, off, src_ip, src_port, dst_ip, dst_port):
            seen.append(bytes(m.to_bytes()[off:]))
            host.defer(got.fire)
        client_ep = bed.stacks[0].udp_manager.bind(
            Credential("cli"), 7001, recv)

        def ping():
            waiter = got.wait()
            yield from host.kernel_path(
                lambda: client_ep.send(b"dev:" + device.encode(),
                                       bed.ip(1), 7000))
            yield waiter
        engine.run_process(ping())
        assert seen == [b"dev:" + device.encode()]

    def test_unix_udp_roundtrip(self, device):
        bed = build_testbed("unix", device)
        engine = bed.engine

        def server():
            sock = bed.sockets[1].udp_socket()
            yield from sock.bind(7000)
            data, addr = yield from sock.recvfrom()
            yield from sock.sendto(data, addr)

        def client():
            sock = bed.sockets[0].udp_socket()
            yield from sock.bind(7001)
            yield from sock.sendto(b"ping", (bed.ip(1), 7000))
            data, _addr = yield from sock.recvfrom()
            return data
        engine.process(server(), name="server")
        assert engine.run_process(client(), name="client") == b"ping"

    def test_spin_tcp_bulk(self, device):
        bed = build_testbed("spin", device)
        engine = bed.engine
        total = 100_000
        state = {"received": 0}
        done = Signal(engine)

        def on_accept(tcb):
            def on_data(data):
                state["received"] += len(data)
                if state["received"] >= total:
                    bed.hosts[1].defer(done.fire)
            tcb.on_data = on_data
        bed.stacks[1].tcp_manager.listen(Credential("srv"), 9000, on_accept)
        chunk = bytes(16_384)

        def run():
            box = {"sent": 0}

            def connect():
                tcb = bed.stacks[0].tcp_manager.connect(
                    Credential("cli"), bed.ip(1), 9000)

                def pump(_space=None):
                    while box["sent"] < total and tcb.send_space > 0:
                        n = tcb.send(chunk[:total - box["sent"]])
                        box["sent"] += n
                        if n == 0:
                            break
                tcb.on_established = pump
                tcb.on_sendable = pump
            waiter = done.wait()
            yield from bed.hosts[0].kernel_path(connect)
            yield waiter
        engine.run_process(run())
        assert state["received"] == total


@pytest.mark.parametrize("twin", [contextlib.nullcontext, scan],
                         ids=["generated", "scan"])
def test_chained_packets_cross_atm_byte_exact(twin):
    """A full-MSS TCP segment and a 3,000-byte UDP datagram fit the ATM MTU
    (9,180), so IP does not fragment them: each is one packet of several
    links on the sender and one on the receiver, under generated dispatch
    and under the ``scan`` twin's reference."""
    with twin():
        _chained_packets_cross_atm()


def _chained_packets_cross_atm():
    bed = build_testbed("spin", "atm")
    engine = bed.engine
    segment = (bytes(range(251)) * 37)[:9140]
    datagram = segment[17:3017]
    segments, datagrams = [], []

    def on_accept(tcb):
        tcb.on_data = segments.append
    bed.stacks[1].tcp_manager.listen(Credential("srv"), 9000, on_accept)

    @ephemeral
    def on_datagram(m, off, src_ip, src_port, dst_ip, dst_port):
        datagrams.append(m.to_bytes()[off:])
    bed.stacks[1].udp_manager.bind(Credential("srv"), 7000, on_datagram)
    sender = bed.stacks[0].udp_manager.bind(Credential("cli"), 7001, _noop)

    def send():
        sender.send(datagram, bed.ip(1), 7000)
        tcb = bed.stacks[0].tcp_manager.connect(
            Credential("cli"), bed.ip(1), 9000)
        tcb.on_established = lambda: tcb.send(segment)
    engine.run_process(bed.hosts[0].kernel_path(send))
    engine.run()
    assert datagrams == [datagram]
    assert segments == [segment]
    # Links charged on each host, as the per-cluster allocator counted
    # them: five for the data segment, two for the datagram (each with
    # its 64 bytes of headroom), one for each of SYN, SYN|ACK and two ACKs.
    assert [host.mbufs.allocated for host in bed.hosts] == [11, 11]


class TestLatencyOrderingInvariants:
    """The paper's headline comparisons, as repeatable assertions."""

    def test_kernel_extensions_beat_sockets_everywhere(self):
        from repro.bench.latency import (
            measure_plexus_udp_rtt,
            measure_unix_udp_rtt,
        )
        for device in ("ethernet", "atm", "t3"):
            plexus = measure_plexus_udp_rtt(device, trips=4).mean
            unix = measure_unix_udp_rtt(device, trips=4).mean
            assert plexus < unix, device

    def test_interrupt_beats_thread_everywhere(self):
        from repro.bench.latency import measure_plexus_udp_rtt
        for device in ("ethernet", "atm", "t3"):
            interrupt = measure_plexus_udp_rtt(device, "interrupt", trips=4)
            thread = measure_plexus_udp_rtt(device, "thread", trips=4)
            assert interrupt.mean < thread.mean, device


class TestConcurrentWorkloads:
    def test_tcp_and_udp_share_the_stack(self, spin_pair):
        bed = spin_pair
        engine = bed.engine
        udp_seen = []
        tcp_state = {"received": 0}
        both_done = Signal(engine)

        @ephemeral
        def udp_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            udp_seen.append(m.length() - off)
        bed.stacks[1].udp_manager.bind(Credential("u"), 7100, udp_handler)

        def on_accept(tcb):
            tcb.on_data = (
                lambda data: tcp_state.__setitem__(
                    "received", tcp_state["received"] + len(data)))
        bed.stacks[1].tcp_manager.listen(Credential("t"), 9100, on_accept)

        udp_ep = bed.stacks[0].udp_manager.bind(Credential("c"), 7101, _noop)
        host = bed.hosts[0]

        def run():
            def work():
                tcb = bed.stacks[0].tcp_manager.connect(
                    Credential("c2"), bed.ip(1), 9100)
                tcb.on_established = lambda: tcb.send(bytes(5000))
                for _ in range(3):
                    udp_ep.send(bytes(256), bed.ip(1), 7100)
            yield from host.kernel_path(work)
        engine.run_process(run())
        engine.run(until=engine.now + 200_000.0)
        assert udp_seen == [256, 256, 256]
        assert tcp_state["received"] == 5000

    def test_many_endpoints_demux_correctly(self, spin_pair):
        bed = spin_pair
        engine = bed.engine
        counts = {}

        def make(port):
            @ephemeral
            def handler(m, off, src_ip, src_port, dst_ip, dst_port):
                counts[dst_port] = counts.get(dst_port, 0) + 1
            return handler
        for port in range(7000, 7016):
            bed.stacks[1].udp_manager.bind(Credential("p%d" % port), port,
                                           make(port))
        sender = bed.stacks[0].udp_manager.bind(Credential("s"), 6999, _noop)
        host = bed.hosts[0]

        def blast():
            def work():
                for port in range(7000, 7016):
                    sender.send(b"x", bed.ip(1), port)
            yield from host.kernel_path(work)
        engine.run_process(blast())
        engine.run()
        assert counts == {port: 1 for port in range(7000, 7016)}

    def test_utilization_accounting_is_consistent(self, spin_pair):
        """Busy time never exceeds wall time on any host."""
        bed = spin_pair
        engine = bed.engine
        server_ep = None

        @ephemeral
        def echo(m, off, src_ip, src_port, dst_ip, dst_port):
            server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)
        server_ep = bed.stacks[1].udp_manager.bind(Credential("s"), 7000, echo)
        client_ep = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        host = bed.hosts[0]

        def blast():
            for _ in range(20):
                yield from host.kernel_path(
                    lambda: client_ep.send(bytes(512), bed.ip(1), 7000))
        engine.run_process(blast())
        engine.run()
        for machine in bed.hosts:
            assert machine.cpu.busy_time <= engine.now + 1e-6
            assert machine.cpu.begin() == 1   # no accumulator left open
