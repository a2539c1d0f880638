#!/usr/bin/env python3
"""Watch the protocol graph work: packet tracing and fault injection.

Attaches a tcpdump-style tracer to both NICs, runs a TCP connection over
a *lossy* Ethernet (5% frame loss, seeded), and prints the decoded trace:
the handshake, data segments, the retransmissions that loss forced, and
the teardown -- all decoded with the same zero-copy VIEW machinery the
kernel's guards use.

Run:  python examples/tracing_and_faults.py
"""

from repro.bench import build_testbed
from repro.core import Credential
from repro.hw.link import ImpairmentConfig
from repro.net.trace import PacketTracer
from repro.sim import Signal


def main() -> None:
    bed = build_testbed("spin", "ethernet")
    bed.medium.set_impairments(
        ImpairmentConfig(loss_good=0.05, loss_bad=0.05), seed=20_25)
    engine = bed.engine

    tracer = PacketTracer(engine)
    tracer.attach(bed.nics[0])

    total = 30_000
    state = {"received": 0, "sent": 0}
    done = Signal(engine)

    def on_accept(tcb):
        def on_data(data):
            state["received"] += len(data)
            if state["received"] >= total:
                bed.hosts[1].defer(done.fire)
        tcb.on_data = on_data
    bed.stacks[1].tcp_manager.listen(Credential("sink"), 9000, on_accept)

    chunk = bytes(8192)

    def run():
        def connect():
            tcb = bed.stacks[0].tcp_manager.connect(
                Credential("source"), bed.ip(1), 9000)

            def pump(_space=None):
                while state["sent"] < total and tcb.send_space > 0:
                    accepted = tcb.send(chunk[:total - state["sent"]])
                    state["sent"] += accepted
                    if accepted == 0:
                        break
            tcb.on_established = pump
            tcb.on_sendable = pump
        yield from bed.hosts[0].kernel_path(connect)
        yield done.wait()
    engine.run_process(run())

    print("transferred %d bytes over a wire losing 5%% of frames"
          % state["received"])
    print("  frames lost on the wire: %d" % bed.medium.frames_lost)
    retransmits = sum(t.retransmits
                      for t in bed.stacks[0].tcp.connections.values())
    print("  sender retransmissions:  %d" % retransmits)

    print("\nfirst 12 frames on the client NIC (tcpdump-style):")
    lines = tracer.render().splitlines()
    print("\n".join(lines[:12]))
    print("  ... %d more frames" % max(0, len(lines) - 12))

    syns = tracer.matching("[SYN]")
    print("\ntrace queries: %d SYN, %d pure ACK-bearing segments, "
          "%d total frames"
          % (len(syns), len(tracer.matching("[ACK]")), len(tracer.records)))


if __name__ == "__main__":
    main()
