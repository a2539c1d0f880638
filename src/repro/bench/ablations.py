"""Ablations of the design choices DESIGN.md calls out.

Each ablation isolates one mechanism the paper motivates:

* **Checksum-disabled UDP** (sec. 1.1's motivating example): RTT and
  one-way throughput with and without the UDP checksum.
* **Interrupt vs thread delivery** (sec. 3.3 / Figure 5): the latency
  price of leaving the interrupt context at every event raise.
* **VIEW vs copy** (sec. 3.2): the per-packet cost of guards that cast
  headers in place versus guards that copy the header bytes out first.
* **Active messages vs UDP** (sec. 3.3): how low the graph lets latency
  go when the transport layers are simply not in the path.
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.active_messages import ActiveMessages
from ..core.extension import AppExtension
from ..core.manager import Credential, discard_datagram
from ..lang.ephemeral import ephemeral
from ..sim import Signal
from .latency import measure_plexus_udp_rtt
from .stats import summarize
from .testbed import build_testbed
from .throughput import measure_udp_throughput

__all__ = [
    "checksum_ablation",
    "delivery_mode_ablation",
    "view_vs_copy_ablation",
    "active_message_rtt",
    "ack_strategy_ablation",
    "rx_ring_ablation",
]


def checksum_ablation(device: str = "atm", trips: int = 10,
                      total_bytes: int = 400_000) -> Dict:
    """UDP with and without checksums: latency and throughput."""
    rtt_on = measure_plexus_udp_rtt(device, trips=trips, checksum=True,
                                    payload_len=1024)
    rtt_off = measure_plexus_udp_rtt(device, trips=trips, checksum=False,
                                     payload_len=1024)
    tput_on = measure_udp_throughput("spin", device, total_bytes,
                                     checksum=True)
    tput_off = measure_udp_throughput("spin", device, total_bytes,
                                      checksum=False)
    return {
        "rtt_checksum_us": rtt_on.mean,
        "rtt_no_checksum_us": rtt_off.mean,
        "rtt_saving_us": rtt_on.mean - rtt_off.mean,
        "tput_checksum_mbps": tput_on,
        "tput_no_checksum_mbps": tput_off,
        "tput_gain": tput_off / tput_on if tput_on else 0.0,
    }


def delivery_mode_ablation(device: str = "ethernet", trips: int = 10) -> Dict:
    """Interrupt-level vs thread-per-event delivery."""
    interrupt = measure_plexus_udp_rtt(device, "interrupt", trips=trips)
    thread = measure_plexus_udp_rtt(device, "thread", trips=trips)
    return {
        "interrupt_us": interrupt.mean,
        "thread_us": thread.mean,
        "thread_penalty_us": thread.mean - interrupt.mean,
    }


def view_vs_copy_ablation(packets: int = 50) -> Dict:
    """Guard demux by VIEW (zero copy) vs by copying the header out.

    Measures the charged CPU of the two guard styles over whole frames
    arriving from the wire.
    """
    results = {}
    for style in ("view", "copy"):
        bed = build_testbed("spin", "ethernet")
        engine = bed.engine
        receiver_stack = bed.stacks[1]
        receiver_host = bed.hosts[1]
        credential = Credential("style-%s" % style)
        seen = Signal(engine)

        if style == "view":
            @ephemeral
            def handler(m, off, src_ip, src_port, dst_ip, dst_port):
                pass
        else:
            @ephemeral
            def handler(m, off, src_ip, src_port, dst_ip, dst_port):
                # Copy the packet out before looking at it (the "safe
                # alternative" the paper rejects as too slow, sec. 3.2).
                scratch = m.copy_packet()
                cpu = receiver_host.cpu
                cpu.charge(m.length() * receiver_host.costs.copy_per_byte,
                           "copy")
                del scratch
        endpoint = receiver_stack.udp_manager.bind(
            credential, 6100, handler, time_limit=500.0)
        del endpoint

        sender_stack = bed.stacks[0]
        sender_host = bed.hosts[0]
        sender_ep = sender_stack.udp_manager.bind(
            Credential("sender"), 6101, handler if style == "view" else discard_datagram)
        payload = bytes(1024)

        busy0, t0 = receiver_host.cpu.sample()

        def blast():
            for _ in range(packets):
                yield from sender_host.kernel_path(
                    lambda: sender_ep.send(payload, bed.ip(1), 6100))
        engine.run_process(blast(), name="blast")
        engine.run()
        busy = receiver_host.cpu.busy_time - busy0
        results[style] = busy / packets
    return {
        "view_us_per_packet": results["view"],
        "copy_us_per_packet": results["copy"],
        "copy_penalty_us": results["copy"] - results["view"],
    }


def active_message_rtt(trips: int = 10) -> Dict:
    """Active-message ping-pong vs UDP on the same Ethernet."""
    bed = build_testbed("spin", "ethernet")
    engine = bed.engine
    am_client = AppExtension.link(ActiveMessages, bed.hosts[0], bed.stacks[0].net_domain,
                                  name="am-client").state
    am_server = AppExtension.link(ActiveMessages, bed.hosts[1], bed.stacks[1].net_domain,
                                  name="am-server").state
    client_host = bed.hosts[0]
    client_mac = bed.nics[0].address
    server_mac = bed.nics[1].address

    reply = Signal(engine)

    server = am_server

    @ephemeral
    def echo_handler(seq: int, arg: int, index: int):
        server.send(client_mac, 1, arg)
    am_server.register(0, echo_handler)

    host = client_host

    @ephemeral
    def reply_handler(seq: int, arg: int, index: int):
        host.defer(reply.fire)
    am_client.register(1, reply_handler)

    samples: List[float] = []

    def ping():
        for i in range(trips):
            start = engine.now
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda i=i: am_client.send(server_mac, 0, i))
            yield waiter
            samples.append(engine.now - start)
    engine.run_process(ping(), name="am-ping")

    am = summarize(samples)
    udp = measure_plexus_udp_rtt("ethernet", trips=trips)
    return {
        "active_message_us": am.mean,
        "udp_us": udp.mean,
        "layers_saved_us": udp.mean - am.mean,
    }


def ack_strategy_ablation(total_bytes: int = 300_000) -> Dict:
    """How the receiver's ACK policy moves ATM TCP throughput.

    Sweeps the delayed-ACK timer: a receiver that acks instantly spends
    CPU on ACK processing (which *is* bandwidth on the PIO-limited ATM
    path); one that delays too long stalls the sender's window.  The
    default sits between.  The knob is patched on the TCB class and
    restored afterwards.
    """
    from ..net.tcp.tcb import Tcb
    from .throughput import measure_plexus_tcp_throughput

    results = {}
    original = Tcb.DELAYED_ACK_US
    try:
        for label, delack_us in (("eager-200us", 200.0),
                                 ("default-1ms", original),
                                 ("sluggish-20ms", 20_000.0)):
            Tcb.DELAYED_ACK_US = delack_us
            results[label] = measure_plexus_tcp_throughput("atm", total_bytes)
    finally:
        Tcb.DELAYED_ACK_US = original
    return {
        "eager_mbps": results["eager-200us"],
        "default_mbps": results["default-1ms"],
        "sluggish_mbps": results["sluggish-20ms"],
    }


def rx_ring_ablation(ring_lengths=(2, 8, 32, 64), frames: int = 120) -> List[Dict]:
    """Receive-ring sizing under burst load on the PIO-limited ATM path.

    The sender outruns the receiver's interrupt processing (PIO reads are
    expensive), so the ring absorbs the burst; too small a ring sheds
    frames at the device.  The knob every driver writer tunes, measured.
    """
    from .testbed import build_raw_pair
    rows: List[Dict] = []
    for ring_len in ring_lengths:
        engine, initiator, responder, nic_a, nic_b = build_raw_pair("atm")
        responder.echo = False
        nic_b.rx_ring_len = ring_len
        delivered = []
        responder.on_frame = lambda data: delivered.append(len(data))
        payload = bytes(9000)

        def blast():
            for _ in range(frames):
                yield from initiator.kernel_path(
                    lambda: nic_a.stage_tx(payload, nic_b.address))
        engine.run_process(blast(), name="burst")
        engine.run()
        rows.append({
            "ring_length": ring_len,
            "delivered": len(delivered),
            "dropped": nic_b.rx_drops,
            "loss_pct": 100.0 * nic_b.rx_drops / frames,
        })
    return rows
