#!/usr/bin/env python3
"""Active messages at interrupt level (paper section 3.3, Figure 2).

The extension claims a private ethertype, installs a guard that
discriminates on the Ethernet type field (the VIEW idiom of Figure 2) and
an EPHEMERAL handler that the Ethernet manager allows to run *inside the
network interrupt handler* with a time budget.  Because the path is
device -> guard -> handler, the round trip undercuts even the in-kernel
UDP stack.

The demo also shows the safety machinery firing: a non-ephemeral handler
is rejected at install, and an over-budget handler is terminated.

Run:  python examples/active_messages_demo.py
"""

from repro.apps.active_messages import ActiveMessages
from repro.bench import build_testbed
from repro.bench.latency import measure_plexus_udp_rtt
from repro.bench.stats import summarize
from repro.core import AppExtension, Credential
from repro.lang import ephemeral
from repro.sim import Signal


def remote_counter_demo() -> None:
    """A tiny distributed counter driven by active messages."""
    bed = build_testbed("spin", "ethernet")
    engine = bed.engine
    am_client = AppExtension.link(ActiveMessages, bed.hosts[0],
                                  bed.stacks[0].net_domain,
                                  name="am-client").state
    am_server = AppExtension.link(ActiveMessages, bed.hosts[1],
                                  bed.stacks[1].net_domain,
                                  name="am-server").state
    client_host = bed.hosts[0]
    client_mac, server_mac = bed.nics[0].address, bed.nics[1].address

    counter = {"value": 0}
    reply = Signal(engine)
    server, client = am_server, client_host

    # handler 0 on the server: add `arg` and reply with the new total.
    @ephemeral
    def add_handler(seq, arg, index):
        counter["value"] += arg
        server.send(client_mac, 1, counter["value"])
    am_server.register(0, add_handler)

    totals = []

    @ephemeral
    def total_handler(seq, arg, index):
        totals.append(arg)
        client.defer(reply.fire)
    am_client.register(1, total_handler)

    samples = []

    def drive():
        for increment in (5, 10, 27):
            start = engine.now
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda inc=increment: am_client.send(server_mac, 0, inc))
            yield waiter
            samples.append(engine.now - start)
    engine.run_process(drive())

    rtt = summarize(samples)
    udp = measure_plexus_udp_rtt("ethernet", trips=5)
    print("remote counter via active messages: totals %s" % totals)
    print("  active-message RTT: %6.1f us" % rtt.mean)
    print("  UDP RTT (same wire): %6.1f us" % udp.mean)
    print("  layers skipped are latency saved: %.1f us"
          % (udp.mean - rtt.mean))


def safety_demo() -> None:
    """The manager's policy in action."""
    from repro.core import AccessError
    bed = build_testbed("spin", "ethernet")
    manager = bed.stacks[0].ethernet_manager

    def sloppy_handler(nic, m):      # not declared EPHEMERAL
        pass
    try:
        manager.claim_ethertype(Credential("sloppy"), 0x88B6, sloppy_handler)
        print("BUG: non-ephemeral handler accepted at interrupt level")
    except AccessError as exc:
        print("\nnon-ephemeral handler rejected at install:")
        print("  %s" % exc)

    # An over-budget handler gets terminated, not trusted.
    host = bed.hosts[0]

    @ephemeral
    def hog(nic, m):
        host.cpu.charge(10_000.0, "hog")  # way past the budget
    handle = manager.claim_ethertype(Credential("hog"), 0x88B7, hog,
                                     time_limit=30.0)
    event = bed.stacks[0].link_recv_event
    frame = host.mbufs  # noqa: F841

    def poke():
        def work():
            m = host.mbufs.from_bytes(bytes(60), leading_space=0)
            mv = m.writable_data()
            mv[12:14] = (0x88B7).to_bytes(2, "big")
            m.freeze()
            host.dispatcher.raise_event(event, bed.nics[0], m)
        yield from host.kernel_path(work)
    bed.engine.run_process(poke())
    print("over-budget handler terminations: %d (allotment was 30 us)"
          % handle.terminations)


def main() -> None:
    remote_counter_demo()
    safety_demo()


if __name__ == "__main__":
    main()
