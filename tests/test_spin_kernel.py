"""Tests for the SPIN kernel host: interrupt handling, priorities,
containment under live traffic."""

import pytest

from repro.core import Credential
from repro.hw import LanceEthernet, EthernetSegment
from repro.lang import ephemeral
from repro.spin import SpinKernel


@ephemeral
def _noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


class TestInterruptPath:
    def test_interrupt_counter(self, spin_pair):
        bed = spin_pair
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        before = bed.hosts[1].interrupts_handled

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(bytes(32), bed.ip(1), 7000))
        bed.engine.run_process(send())
        bed.engine.run()
        assert bed.hosts[1].interrupts_handled == before + 1

    def test_interrupt_charges_entry_and_exit(self, engine):
        kernel = SpinKernel(engine, "h1")
        peer = SpinKernel(engine, "h2")
        seg = EthernetSegment(engine)
        nic1 = LanceEthernet(engine, "e0", b"\x01" * 6)
        nic2 = LanceEthernet(engine, "e0", b"\x02" * 6)
        kernel.add_nic(nic1)
        peer.add_nic(nic2)
        seg.attach(nic1)
        seg.attach(nic2)
        peer.register_device_input(nic2, lambda nic, data: None)

        def send():
            yield from kernel.kernel_path(
                lambda: nic1.stage_tx(bytes(64), b"\x02" * 6))
        engine.run_process(send())
        engine.run()
        interrupt_work = peer.cpu.category_times.get("interrupt", 0.0)
        assert interrupt_work == pytest.approx(
            peer.costs.interrupt_entry + peer.costs.interrupt_exit)

    def test_interrupts_preempt_queued_threads(self, spin_pair):
        """Interrupt-level consumption is served before thread-level."""
        bed = spin_pair
        engine = bed.engine
        receiver = bed.hosts[1]
        order = []

        # A long thread-priority job keeps the receiver CPU busy...
        def hog():
            def work():
                receiver.cpu.charge(400.0, "hog")
            yield from receiver.kernel_path(work)
            order.append(("hog-done", engine.now))
        engine.process(hog())

        # ...then a second thread job queues behind it...
        def second():
            yield engine.timeout(1.0)

            def work():
                receiver.cpu.charge(100.0, "second")
            yield from receiver.kernel_path(work)
            order.append(("second-done", engine.now))
        engine.process(second())

        # ...and a packet arrives mid-hog: its interrupt must run before
        # the queued thread work.
        seen = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            seen.append(engine.now)
        bed.stacks[1].udp_manager.bind(Credential("i"), 7002, handler)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(bytes(16), bed.ip(1), 7002))
        engine.process(send())
        engine.run()
        assert seen, "packet never delivered"
        second_done = dict(order)["second-done"]
        assert seen[0] < second_done


class TestContainmentUnderTraffic:
    def test_broken_extension_does_not_stop_other_traffic(self, spin_pair):
        """A crashing extension handler is contained; the kernel's own
        protocols and other extensions keep flowing."""
        bed = spin_pair
        engine = bed.engine

        @ephemeral
        def broken(m, off, src_ip, src_port, dst_ip, dst_port):
            raise RuntimeError("extension bug")
        broken_ep = bed.stacks[1].udp_manager.bind(
            Credential("broken"), 7100, broken)

        healthy = []

        @ephemeral
        def fine(m, off, src_ip, src_port, dst_ip, dst_port):
            healthy.append(1)
        bed.stacks[1].udp_manager.bind(Credential("fine"), 7200, fine)

        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send_both():
            def work():
                sender.send(bytes(8), bed.ip(1), 7100)
                sender.send(bytes(8), bed.ip(1), 7200)
            yield from bed.hosts[0].kernel_path(work)
        engine.run_process(send_both())
        engine.run()
        assert healthy == [1]
        assert broken_ep.handle.failures == 1
        assert isinstance(broken_ep.handle.last_error, RuntimeError)

    def test_time_limited_handler_terminated_in_real_traffic(self, spin_pair):
        """An over-budget ephemeral handler is cut off at its allotment
        while processing a real packet (paper sec. 3.3)."""
        bed = spin_pair
        engine = bed.engine
        receiver = bed.hosts[1]

        @ephemeral
        def hog(m, off, src_ip, src_port, dst_ip, dst_port):
            receiver.cpu.charge(100_000.0, "runaway")
        endpoint = bed.stacks[1].udp_manager.bind(
            Credential("hog"), 7100, hog, time_limit=50.0)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)
        busy_before = receiver.cpu.busy_time

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(bytes(8), bed.ip(1), 7100))
        engine.run_process(send())
        engine.run()
        assert endpoint.handle.terminations == 1
        # The receiver paid the 50 us allotment, not the 100 ms runaway.
        assert receiver.cpu.busy_time - busy_before < 1_000.0


class TestDomainsOnKernel:
    def test_linker_bound_to_host(self, kernel):
        assert kernel.linker.host is kernel
