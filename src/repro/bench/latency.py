"""Figure 5: UDP round-trip latency for small packets.

"Figure 5 shows the round-trip latency for small (8 byte) UDP/IP messages
between a pair of application-specific functions on SPIN/Plexus and
DIGITAL UNIX on Ethernet, the Fore ATM interface, and the DEC T3
interfaces" -- plus the hardware floor ("the minimal round trip time using
our hardware as measured between the device drivers") and the
faster-driver variant of section 4.1 (337 us Ethernet / 241 us ATM).

Four measurement functions, one per bar family:

* :func:`measure_plexus_udp_rtt` -- ``deliver_mode`` selects the
  *interrupt* or *thread* bar,
* :func:`measure_unix_udp_rtt` -- the DIGITAL UNIX bar,
* :func:`measure_raw_rtt` -- the driver-to-driver floor,
* :func:`figure5` -- the whole figure as a list of rows.

Every measurement routes its trips through a
:class:`~repro.obs.slo.RequestLifecycle` instead of a hand-kept sample
list, so Figure 5 and the SLO harness (``python -m repro.bench
--latency``) share one begin/end path and one percentile
implementation.  The lifecycle computes each latency with the exact
float arithmetic the sample lists used (``engine.now - begin``), so
every historical mean -- including the golden numbers in
``repro.bench.regression`` -- is bit-identical; ``tests/test_slo.py``
asserts this against an inline old-style collection.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.slo import RequestLifecycle
from ..sim import Signal
from .stats import Summary
from .testbed import build_raw_pair, build_testbed
from .workloads import PINGPONG, _udp_echo

__all__ = [
    "measure_plexus_udp_rtt",
    "measure_unix_udp_rtt",
    "measure_raw_rtt",
    "figure5",
    "PAPER_FIGURE5_US",
]

#: The round-trip latencies the paper reports or implies (microseconds).
#: Only the values the text states explicitly are filled in; the rest of
#: the figure is read qualitatively (orderings) in EXPERIMENTS.md.
PAPER_FIGURE5_US = {
    ("ethernet", "plexus-interrupt"): 565.0,   # "less than 600 usecs"
    ("atm", "plexus-interrupt"): 350.0,
    ("t3", "plexus-interrupt"): 300.0,
    ("ethernet-fast", "plexus-interrupt"): 337.0,
    ("atm-fast", "plexus-interrupt"): 241.0,
}

_PONG_PORT, _PING_PORT = PINGPONG["ports"]


def measure_plexus_udp_rtt(device: str, deliver_mode: str = "interrupt",
                           fast_driver: bool = False, trips: int = 20,
                           payload_len: int = 8,
                           checksum: bool = True) -> Summary:
    """UDP ping-pong between two in-kernel Plexus extensions: the
    registry's ``udp_pingpong`` scenario on the bed the arguments name."""
    bed = build_testbed("spin", device, deliver_mode=deliver_mode,
                        fast_driver=fast_driver)
    lifecycle = RequestLifecycle(bed.engine)
    setup = _udp_echo(
        **PINGPONG, payload=payload_len, checksum=checksum,
        mode="inline" if deliver_mode == "interrupt" else "thread")
    _state, ping_loop = setup(bed, trips, lifecycle)
    bed.engine.run_process(ping_loop(), name="ping")
    return lifecycle.summary(PINGPONG["kind"])


def measure_unix_udp_rtt(device: str, fast_driver: bool = False,
                         trips: int = 20, payload_len: int = 8,
                         checksum: bool = True) -> Summary:
    """UDP ping-pong between two user-level socket applications."""
    bed = build_testbed("unix", device, fast_driver=fast_driver)
    engine = bed.engine
    client_sockets, server_sockets = bed.sockets
    lifecycle = RequestLifecycle(engine)
    payload = bytes(payload_len)

    def server_proc():
        sock = server_sockets.udp_socket()
        yield from sock.bind(_PONG_PORT)
        for _ in range(trips):
            data, addr = yield from sock.recvfrom()
            yield from sock.sendto(data, addr, checksum=checksum)

    def client_proc():
        sock = client_sockets.udp_socket()
        yield from sock.bind(_PING_PORT)
        for _ in range(trips):
            request = lifecycle.begin("udp_rtt")
            yield from sock.sendto(payload, (bed.ip(1), _PONG_PORT),
                                   checksum=checksum)
            yield from sock.recvfrom()
            lifecycle.end(request)

    engine.process(server_proc(), name="udp-server")
    engine.run_process(client_proc(), name="udp-client")
    return lifecycle.summary("udp_rtt")


def measure_raw_rtt(device: str, fast_driver: bool = False, trips: int = 20,
                    frame_len: int = 50) -> Summary:
    """The hardware floor: ping-pong directly between device drivers."""
    engine, initiator, responder, nic_a, nic_b = build_raw_pair(
        device, fast_driver=fast_driver)
    reply_seen = Signal(engine)
    initiator.on_frame = lambda data: initiator.defer(reply_seen.fire)
    lifecycle = RequestLifecycle(engine)
    frame = bytes(frame_len)

    def ping_loop():
        for _ in range(trips):
            request = lifecycle.begin("raw_rtt")
            waiter = reply_seen.wait()
            yield from initiator.kernel_path(
                lambda: nic_a.stage_tx(frame, nic_b.address))
            yield waiter
            lifecycle.end(request)

    engine.run_process(ping_loop(), name="raw-ping")
    return lifecycle.summary("raw_rtt")


def figure5(trips: int = 20, devices=("ethernet", "atm", "t3")) -> List[Dict]:
    """Regenerate the whole figure: one row per (device, system) bar."""
    rows: List[Dict] = []
    for device in devices:
        raw = measure_raw_rtt(device, trips=trips)
        interrupt = measure_plexus_udp_rtt(device, "interrupt", trips=trips)
        thread = measure_plexus_udp_rtt(device, "thread", trips=trips)
        unix = measure_unix_udp_rtt(device, trips=trips)
        for system, summary in (("raw-driver", raw),
                                ("plexus-interrupt", interrupt),
                                ("plexus-thread", thread),
                                ("digital-unix", unix)):
            rows.append({
                "device": device,
                "system": system,
                "rtt_us": summary.mean,
                "paper_us": PAPER_FIGURE5_US.get((device, system)),
            })
        if device in ("ethernet", "atm"):
            fast = measure_plexus_udp_rtt(device, "interrupt",
                                          fast_driver=True, trips=trips)
            rows.append({
                "device": device + "-fast",
                "system": "plexus-interrupt",
                "rtt_us": fast.mean,
                "paper_us": PAPER_FIGURE5_US.get(
                    (device + "-fast", "plexus-interrupt")),
            })
    return rows
