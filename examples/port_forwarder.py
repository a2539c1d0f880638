#!/usr/bin/env python3
"""The load-balancing protocol forwarder of paper section 5.2.

Three machines: a client, a front host whose address is the service's
virtual IP, and backends.  Under Plexus, the forwarder is an in-kernel
node installed into the protocol graph at the IP level; it sees *all*
packets for the service port -- SYN and FIN included -- so each client's
TCP connection runs end-to-end against the backend the forwarder picked.
The DIGITAL UNIX comparator is a user-level socket splice.

Run:  python examples/port_forwarder.py
"""

from repro.apps.forwarder import BackendService, PlexusForwarder
from repro.bench import build_testbed
from repro.bench.forwarding import (
    measure_plexus_forwarding,
    measure_unix_forwarding,
)
from repro.core import AppExtension, Credential
from repro.sim import Signal

SERVICE_PORT = 8080


def load_balance_demo() -> None:
    """Round-robin two backends behind one virtual IP."""
    bed = build_testbed("spin", "ethernet", n_hosts=4)
    engine = bed.engine
    client_stack, front_stack, b1_stack, b2_stack = bed.stacks
    vip = bed.ip(1)

    # Each piece is an extension linked against its host's net domain;
    # both need a privileged credential (foreign source addresses).
    linked_forwarder = AppExtension.link(
        PlexusForwarder, bed.hosts[1], front_stack.net_domain, SERVICE_PORT,
        backends=[bed.ip(2), bed.ip(3)], privileged=True)
    forwarder = linked_forwarder.state
    backend_1 = AppExtension.link(
        BackendService, bed.hosts[2], b1_stack.net_domain, vip, SERVICE_PORT,
        echo=True, name="backend-1", privileged=True).state
    backend_2 = AppExtension.link(
        BackendService, bed.hosts[3], b2_stack.net_domain, vip, SERVICE_PORT,
        echo=True, name="backend-2", privileged=True).state

    replies = []
    done = Signal(engine)
    host = bed.hosts[0]

    def run():
        def connect_four():
            for i in range(4):
                tcb = client_stack.tcp_manager.connect(
                    Credential("client-%d" % i), vip, SERVICE_PORT)

                def on_data(data, n=i):
                    replies.append((n, data))
                    if len(replies) == 4:
                        host.defer(done.fire)
                tcb.on_data = on_data
                tcb.on_established = (
                    lambda t=tcb, n=i: t.send(b"request %d" % n))
        waiter = done.wait()
        yield from host.kernel_path(connect_four)
        yield waiter
    engine.run_process(run())

    print("4 connections to %s:%d (one virtual IP, two backends):"
          % ("10.1.0.2", SERVICE_PORT))
    print("  backend-1 served %d connections, backend-2 served %d"
          % (len(backend_1.connections), len(backend_2.connections)))
    print("  packets through the in-kernel redirect node: %d"
          % forwarder.packets_forwarded)
    print("  front host's own TCP saw %d connections (end-to-end preserved)"
          % len(front_stack.tcp.connections))
    for n, data in sorted(replies):
        assert data == b"request %d" % n

    # Runtime adaptation: unlinking the forwarder takes its redirect node
    # out of the running graph, and the front host may serve the port.
    linked_forwarder.uninstall()
    front_stack.tcp_manager.listen(Credential("local"), SERVICE_PORT,
                                   lambda tcb: None)


def latency_comparison() -> None:
    """Figure 7: redirect latency under both architectures."""
    plexus = measure_plexus_forwarding(trips=10)
    unix = measure_unix_forwarding(trips=10)
    print("\nrequest/response RTT through the forwarder (Figure 7):")
    print("  %-22s %8.1f us   end-to-end TCP: %s"
          % ("Plexus in-kernel node", plexus["rtt"].mean,
             plexus["end_to_end"]))
    print("  %-22s %8.1f us   end-to-end TCP: %s"
          % ("user-level splice", unix["rtt"].mean, unix["end_to_end"]))
    print("  splice penalty: %.1fx (two stack trips + two boundary copies"
          % (unix["rtt"].mean / plexus["rtt"].mean))
    print("  + scheduling, per direction)")


def main() -> None:
    load_balance_demo()
    latency_comparison()


if __name__ == "__main__":
    main()
