"""Figure 5: UDP round-trip latency for small packets.

"Figure 5 shows the round-trip latency for small (8 byte) UDP/IP messages
between a pair of application-specific functions on SPIN/Plexus and
DIGITAL UNIX on Ethernet, the Fore ATM interface, and the DEC T3
interfaces" -- plus the hardware floor ("the minimal round trip time using
our hardware as measured between the device drivers") and the
faster-driver variant of section 4.1 (337 us Ethernet / 241 us ATM).

Three measurement functions, one per bar family:

* :func:`measure_plexus_udp_rtt` -- ``deliver_mode`` selects the
  *interrupt* or *thread* bar,
* :func:`measure_unix_udp_rtt` -- the DIGITAL UNIX bar,
* :func:`measure_raw_rtt` -- the driver-to-driver floor;

:func:`measure_rtt` picks one by the bar's name (the ledger's Figure 5
cells), and :func:`figure5` returns the whole figure as a list of rows.

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

from ..hw.alpha import ALPHA_21064, CostTable
from ..obs.slo import RequestLifecycle
from ..sim import Signal
from .claims import paper
from .stats import Summary
from .testbed import build_raw_pair, build_testbed
from .workloads import PINGPONG, _udp_echo, _udp_echo_fingerprint, run_scenario

__all__ = [
    "measure_plexus_udp_rtt",
    "measure_unix_udp_rtt",
    "measure_raw_rtt",
    "measure_rtt",
    "figure5",
]

#: Figure 5's bars on each device, in the figure's order.
SYSTEMS = ("raw-driver", "plexus-interrupt", "plexus-thread", "digital-unix")


def _pingpong(bed, trips: int, **scenario) -> Summary:
    """The registry's ``udp_pingpong`` scenario, ``trips`` round trips
    on ``bed``: the mean of what its lifecycle saw."""
    lifecycle = RequestLifecycle(bed.engine)
    run_scenario(bed, _udp_echo(**PINGPONG, **scenario), trips,
                 _udp_echo_fingerprint, lifecycle)
    return lifecycle.summary(PINGPONG["kind"])


def measure_plexus_udp_rtt(device: str, deliver_mode: str = "interrupt",
                           fast_driver: bool = False, trips: int = 20,
                           payload_len: int = 8, checksum: bool = True,
                           costs: CostTable = ALPHA_21064) -> Summary:
    """UDP ping-pong between two in-kernel Plexus extensions, bound at
    interrupt level or in a kernel thread as ``deliver_mode`` says."""
    bed = build_testbed("spin", device, deliver_mode=deliver_mode,
                        fast_driver=fast_driver, costs=costs)
    return _pingpong(
        bed, trips, payload=payload_len, checksum=checksum,
        mode="inline" if deliver_mode == "interrupt" else "thread")


def measure_unix_udp_rtt(device: str, fast_driver: bool = False,
                         trips: int = 20, payload_len: int = 8,
                         checksum: bool = True,
                         costs: CostTable = ALPHA_21064) -> Summary:
    """UDP ping-pong between two user-level socket applications."""
    bed = build_testbed("unix", device, fast_driver=fast_driver,
                        costs=costs)
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


def measure_rtt(device: str, system: str, fast_driver: bool = False,
                trips: int = 20) -> Summary:
    """One bar of the figure: ``system`` is one of :data:`SYSTEMS`."""
    if system == "raw-driver":
        return measure_raw_rtt(device, fast_driver, trips)
    if system == "digital-unix":
        return measure_unix_udp_rtt(device, fast_driver, trips)
    return measure_plexus_udp_rtt(device, system[len("plexus-"):],
                                  fast_driver, trips)


def figure5(trips: int = 20, devices=("ethernet", "atm", "t3")) -> List[Dict]:
    """Regenerate the whole figure: one row per (device, system) bar, with
    the value the ledger (:mod:`repro.bench.claims`) says the paper
    states."""
    bars = []
    for device in devices:
        bars += [(device, system, False) for system in SYSTEMS]
        if device in ("ethernet", "atm"):
            bars.append((device, "plexus-interrupt", True))
    rows: List[Dict] = []
    for device, system, fast in bars:
        label = device + "-fast" if fast else device
        rows.append({
            "device": label,
            "system": system,
            "rtt_us": measure_rtt(device, system, fast, trips).mean,
            "paper_us": paper("fig5.%s.%s" % (label, system)),
        })
    return rows
