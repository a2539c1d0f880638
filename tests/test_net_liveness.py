"""Tests for liveness machinery: ARP cache aging."""

import math

from repro.bench.testbed import build_testbed
from repro.core import Credential
from repro.lang import ephemeral


@ephemeral
def _noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


class TestArpAging:
    def test_expired_entry_triggers_new_request(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        engine = bed.engine
        arp = bed.stacks[0].arp
        arp.entry_lifetime_us = 100_000.0  # 100 ms for the test
        seen = []
        bed.stacks[1].udp_manager.bind(Credential("s"), 7000,
                                       _make_counter(seen))
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(b"one", bed.ip(1), 7000))
        engine.run_process(send())
        engine.run()
        assert arp.requests_sent == 1
        # Let the entry rot, then send again.
        engine.run(until=engine.now + 200_000.0)
        engine.run_process(send())
        engine.run()
        assert arp.expirations == 1
        assert arp.requests_sent == 2
        assert len(seen) == 2  # both datagrams arrived regardless

    def test_fresh_entry_not_expired(self):
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        engine = bed.engine
        arp = bed.stacks[0].arp
        bed.stacks[1].udp_manager.bind(Credential("s"), 7000, _noop)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(b"x", bed.ip(1), 7000))
        for _ in range(3):
            engine.run_process(send())
            engine.run()
        assert arp.requests_sent == 1
        assert arp.expirations == 0

    def test_refresh_on_relearn(self):
        """Hearing from the peer refreshes its entry's clock."""
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        engine = bed.engine
        arp_a = bed.stacks[0].arp
        arp_a.entry_lifetime_us = 150_000.0
        echo_ep = None

        @ephemeral
        def echo(m, off, src_ip, src_port, dst_ip, dst_port):
            echo_ep.send(b"back", src_ip, src_port)
        echo_ep = bed.stacks[1].udp_manager.bind(Credential("s"), 7000, echo)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send():
            yield from bed.hosts[0].kernel_path(
                lambda: sender.send(b"ping", bed.ip(1), 7000))
        # Traffic every 100 ms: each reply does NOT refresh A's entry for
        # B (replies are unicast IP, not ARP), so expiry still happens at
        # 150 ms idle -- but sends at 100 ms spacing keep hitting a live
        # entry until it ages past the lifetime.
        engine.run_process(send())
        engine.run()
        engine.run(until=engine.now + 100_000.0)
        engine.run_process(send())
        engine.run()
        assert arp_a.requests_sent == 1  # entry still fresh at 100 ms

    @staticmethod
    def _send_when_lifetime_old(lifetime_of):
        """Learn host 1's entry, wait, set the lifetime to
        ``lifetime_of(age)`` where ``age`` is the entry's exact age at
        the next send, and send: ``(requests, expirations, queued)`` as
        the send left them, and the datagrams host 1 got in the end."""
        bed = build_testbed("spin", "ethernet", warm_arp=False)
        engine = bed.engine
        arp = bed.stacks[0].arp
        dst = bed.ip(1)
        seen = []
        bed.stacks[1].udp_manager.bind(Credential("s"), 7000,
                                       _make_counter(seen))
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _noop)

        def send_and_look():
            sender.send(b"x", dst, 7000)
            return arp.requests_sent, arp.expirations, dst in arp._pending

        def send():
            return (yield from bed.hosts[0].kernel_path(send_and_look))
        engine.run_process(send())
        engine.run()
        at = engine.now + 50_000.0
        engine.run(until=at)
        # The float the expiry test computes when the send runs at ``at``.
        arp.entry_lifetime_us = lifetime_of(at - arp._entry_born[dst])
        looked = engine.run_process(send())
        engine.run()
        return looked, len(seen)

    def test_entry_exactly_lifetime_old_still_sends(self):
        """An entry exactly ``entry_lifetime_us`` old is live (the test
        is ``age > lifetime``): the datagram goes out at once, with no
        request and no expiry.  One ulp less of lifetime expires it."""
        assert self._send_when_lifetime_old(lambda age: age) == (
            (1, 0, False), 2)
        assert self._send_when_lifetime_old(
            lambda age: math.nextafter(age, 0.0)) == ((2, 1, True), 2)


def _make_counter(seen):
    @ephemeral
    def handler(m, off, src_ip, src_port, dst_ip, dst_port):
        seen.append(dst_port)
    return handler
