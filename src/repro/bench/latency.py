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

The two UDP bars are one conversation, the registry's ``udp_pingpong``
scenario on a SPIN or a UNIX bed, whose OS picks the in-kernel or the
socket half; its fingerprint checks each ping was echoed once, byte for
byte.  Every measurement routes its trips through a
:class:`~repro.obs.slo.RequestLifecycle`, so Figure 5 and the SLO harness
(``python -m repro.bench --latency``) share one begin/end path and one
percentile implementation, with the float arithmetic of the hand-kept
sample lists before them (``tests/test_slo.py`` checks it bit for bit).
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.slo import RequestLifecycle
from ..sim import Signal
from .stats import Summary
from .testbed import build_raw_pair, build_testbed
from .workloads import PINGPONG, _udp_echo, _udp_echo_fingerprint, run_scenario

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


def _pingpong(bed, trips: int, **scenario) -> Summary:
    """The registry's ``udp_pingpong`` scenario, ``trips`` round trips
    on ``bed``: the mean of what its lifecycle saw."""
    lifecycle = RequestLifecycle(bed.engine)
    run_scenario(bed, _udp_echo(**PINGPONG, **scenario), trips,
                 _udp_echo_fingerprint, lifecycle)
    return lifecycle.summary(PINGPONG["kind"])


def measure_plexus_udp_rtt(device: str, deliver_mode: str = "interrupt",
                           fast_driver: bool = False, trips: int = 20,
                           payload_len: int = 8,
                           checksum: bool = True) -> Summary:
    """UDP ping-pong between two in-kernel Plexus extensions, bound at
    interrupt level or in a kernel thread as ``deliver_mode`` says."""
    bed = build_testbed("spin", device, deliver_mode=deliver_mode,
                        fast_driver=fast_driver)
    return _pingpong(
        bed, trips, payload=payload_len, checksum=checksum,
        mode="inline" if deliver_mode == "interrupt" else "thread")


def measure_unix_udp_rtt(device: str, fast_driver: bool = False,
                         trips: int = 20, payload_len: int = 8,
                         checksum: bool = True) -> Summary:
    """UDP ping-pong between two user-level socket applications."""
    bed = build_testbed("unix", device, fast_driver=fast_driver)
    return _pingpong(bed, trips, payload=payload_len, checksum=checksum)


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
