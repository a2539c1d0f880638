"""Section 4.2: TCP throughput (plus the raw driver-to-driver anchor).

The paper reports: Ethernet 8.9 Mb/s on both systems (wire-limited);
Fore ATM 27.9 Mb/s on DIGITAL UNIX vs 33 Mb/s on Plexus (CPU-limited by
the programmed-I/O driver, so every boundary copy costs bandwidth); raw
driver-to-driver ATM tops out at ~53 Mb/s; T3 TCP was unmeasurable on
SPIN because of a DMA bug, so -- as the substitution -- we report UDP
throughput on T3 for both systems instead.

The two TCP rows are one conversation: the registry's ``tcp_bulk``
stream (:func:`repro.bench.workloads._tcp_stream`) on a SPIN or a UNIX
bed, whose OS picks the in-kernel or the socket half; on UNIX the
sending program closes its socket when done, as section 4.2's did.  Its
fingerprint checks that the seeded stream arrived byte-exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.manager import Credential, discard_datagram
from ..hw.alpha import MICROSECONDS_PER_SECOND
from ..lang.ephemeral import ephemeral
from .claims import paper
from .testbed import build_raw_pair, build_testbed
from .workloads import _tcp_stream, _tcp_stream_fingerprint, run_scenario

__all__ = [
    "measure_plexus_tcp_throughput",
    "measure_unix_tcp_throughput",
    "measure_raw_throughput",
    "measure_udp_throughput",
    "section42",
]

_PORT = 9000


def _mbps(nbytes: int, elapsed_us: float) -> float:
    if elapsed_us <= 0:
        return 0.0
    return nbytes * 8.0 / elapsed_us * MICROSECONDS_PER_SECOND / 1e6


def measure_plexus_tcp_throughput(device: str, total_bytes: int = 1_000_000,
                                  deliver_mode: str = "interrupt") -> float:
    """Bulk TCP between two in-kernel extensions; returns payload Mb/s."""
    bed = build_testbed("spin", device, deliver_mode=deliver_mode)
    return run_scenario(bed, _tcp_stream(), total_bytes,
                        _tcp_stream_fingerprint)["mbps"]


def measure_unix_tcp_throughput(device: str,
                                total_bytes: int = 1_000_000) -> float:
    """Bulk TCP between two user-level socket processes."""
    bed = build_testbed("unix", device)
    return run_scenario(bed, _tcp_stream(close=True), total_bytes,
                        _tcp_stream_fingerprint)["mbps"]


def measure_raw_throughput(device: str, frames: int = 200,
                           frame_len: Optional[int] = None) -> float:
    """Blast MTU frames driver-to-driver; returns delivered Mb/s.

    The receiver's interrupt path (PIO reads for ATM) is the bottleneck;
    delivered throughput is counted at the receiver.
    """
    engine, initiator, responder, nic_a, nic_b = build_raw_pair(device)
    responder.echo = False
    frame_len = frame_len or (nic_b.mtu + nic_b.link_header)
    state = {"received": 0, "first": None, "last": None}

    def on_frame(data: bytes) -> None:
        now = engine.now
        if state["first"] is None:
            state["first"] = now
        state["received"] += len(data)
        state["last"] = now
    responder.on_frame = on_frame

    payload = bytes(frame_len)

    def blast():
        for _ in range(frames):
            yield from initiator.kernel_path(
                lambda: nic_a.stage_tx(payload, nic_b.address))
    engine.run_process(blast(), name="raw-blast")
    engine.run()
    elapsed = state["last"] - state["first"]
    return _mbps(state["received"], elapsed)


def measure_udp_throughput(os_name: str, device: str,
                           total_bytes: int = 1_000_000,
                           datagram: int = 4096,
                           checksum: bool = True) -> float:
    """One-way UDP blast (the T3 substitute measurement)."""
    bed = build_testbed(os_name, device)
    engine = bed.engine
    state = {"received": 0, "first": None, "last": None}

    if os_name == "spin":
        receiver_stack = bed.stacks[1]
        receiver_host = bed.hosts[1]

        @ephemeral
        def sink(m, off, src_ip, src_port, dst_ip, dst_port):
            if state["first"] is None:
                state["first"] = engine.now
            state["received"] += m.length() - off
            state["last"] = engine.now
        receiver_stack.udp_manager.bind(
            Credential("sink"), _PORT, sink, time_limit=1000.0,
            checksum=checksum)
        sender_stack = bed.stacks[0]
        sender_host = bed.hosts[0]
        sender_ep = sender_stack.udp_manager.bind(
            Credential("blast"), _PORT + 1, discard_datagram, checksum=checksum)

        payload = bytes(datagram)

        def blast():
            sent = 0
            while sent < total_bytes:
                yield from sender_host.kernel_path(
                    lambda: sender_ep.send(payload, bed.ip(1), _PORT))
                sent += datagram
        engine.run_process(blast(), name="udp-blast")
        engine.run()
    else:
        receiver_sockets = bed.sockets[1]
        sender_sockets = bed.sockets[0]

        def server():
            sock = receiver_sockets.udp_socket()
            yield from sock.bind(_PORT)
            while state["received"] < total_bytes:
                data, _addr = yield from sock.recvfrom()
                if state["first"] is None:
                    state["first"] = engine.now
                state["received"] += len(data)
                state["last"] = engine.now

        def client():
            sock = sender_sockets.udp_socket()
            yield from sock.bind(_PORT + 1)
            sent = 0
            payload = bytes(datagram)
            while sent < total_bytes:
                yield from sock.sendto(payload, (bed.ip(1), _PORT),
                                       checksum=checksum)
                sent += datagram
        engine.process(server(), name="udp-server")
        engine.run_process(client(), name="udp-client")
        engine.run()
    elapsed = (state["last"] or 0) - (state["first"] or 0)
    return _mbps(state["received"], elapsed)


def section42(total_bytes: int = 600_000) -> List[Dict]:
    """Regenerate the section 4.2 throughput comparison, with the value
    the ledger (:mod:`repro.bench.claims`) says the paper states."""
    rows: List[tuple] = []
    for device in ("ethernet", "atm"):
        rows.append((device, "plexus",
                     measure_plexus_tcp_throughput(device, total_bytes)))
        rows.append((device, "unix",
                     measure_unix_tcp_throughput(device, total_bytes)))
    rows.append(("atm", "raw-driver", measure_raw_throughput("atm")))
    # T3 TCP was unmeasurable in the paper (SPIN DMA bug); report UDP for
    # both systems as the documented substitution.
    rows.append(("t3", "plexus-udp",
                 measure_udp_throughput("spin", "t3", total_bytes)))
    rows.append(("t3", "unix-udp",
                 measure_udp_throughput("unix", "t3", total_bytes)))
    return [{"device": device, "system": system, "mbps": mbps,
             "paper_mbps": paper("sec42.%s.%s" % (device, system))}
            for device, system, mbps in rows]
