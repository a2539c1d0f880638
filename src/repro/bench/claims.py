"""The paper's claims as one ledger.

Every number and relation the evaluation states (sections 2-5, Figures
5-7), every relation the reproduction adds about its own design
choices, and the golden pins of the calibration are rows of
:data:`CLAIMS`.  Everything else reads them: ``benchmarks/`` asserts
each row, ``python -m repro.bench --check`` the ``golden`` ones, and
the report's ``paper_us`` / ``paper_mbps`` columns the stated targets.
EXPERIMENTS.md's paper tables are that report verbatim, and
``tests/test_claims.py`` holds them, and Figure 5's closed form, to the
ledger.

A row reads one or more *cells*: a harness function of this package,
its arguments, and the path to one number in what it returns.  A
harness runs once per cell per process (:func:`result`), however many
rows read it.  A row of one cell reads its value; a row of two reads
their ratio, the first over the second.  Each kind compares that
reading with its operator:

* ``target`` -- ``abs(reading - value) / value`` against ``tolerance``;
* ``bound`` -- the reading against ``value``, or ``lo op reading op hi``
  when ``value`` is a pair (on a ratio: the paper's ratio window);
* ``ordering`` -- each cell against the next;
* ``golden`` -- a target that pins the reproduction's own output rather
  than a number the paper states.
"""

from __future__ import annotations

import functools
import importlib
import operator
from typing import Callable, Dict, NamedTuple, Optional, Tuple

__all__ = ["BY_ID", "CLAIMS", "KINDS", "Cell", "Claim", "harness", "paper",
           "result", "value", "verdict"]

KINDS = ("target", "bound", "ordering", "golden")
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


class Cell(NamedTuple):
    """``harness(*args, **dict(kwargs))``, then ``pick``: a path of keys,
    or of ``(field, wanted)`` pairs that select a row of a table.  A
    :class:`~repro.bench.stats.Summary` at the end reads as its mean."""
    harness: str
    args: tuple
    kwargs: tuple
    pick: tuple


class Claim(NamedTuple):
    id: str
    section: str
    sentence: str
    kind: str
    cells: Tuple[Cell, ...]
    op: str
    value: object = None
    tolerance: Optional[float] = None


def cell(harness_name: str, *args, pick=(), **kwargs) -> Cell:
    return Cell(harness_name, args, tuple(sorted(kwargs.items())),
                pick if isinstance(pick, tuple) else (pick,))


def harness(name: str) -> Callable:
    """``"latency.measure_rtt"`` -> :func:`repro.bench.latency.measure_rtt`."""
    module, function = name.rsplit(".", 1)
    return getattr(importlib.import_module("repro.bench." + module), function)


@functools.lru_cache(maxsize=None)
def _run(harness_name: str, args: tuple, kwargs: tuple):
    return harness(harness_name)(*args, **dict(kwargs))


def result(c: Cell):
    """What the cell's harness call returned (run once per process)."""
    return _run(c.harness, c.args, c.kwargs)


def value(c: Cell) -> float:
    """The cell's number."""
    out = result(c)
    for step in c.pick:
        if isinstance(step, tuple):
            field, wanted = step
            out = next(row for row in out if row[field] == wanted)
        else:
            out = out[step]
    return getattr(out, "mean", out)


def verdict(claim, value_of: Callable[[Cell], float] = value) -> Dict:
    """Judge one row (a :class:`Claim` or its id; an unknown id raises
    ``KeyError``), reading each cell through ``value_of``."""
    if isinstance(claim, str):
        claim = BY_ID[claim]
    readings = [value_of(c) for c in claim.cells]
    op = OPS[claim.op]
    deviation = None
    if claim.kind == "ordering":
        measured = readings
        ok = all(op(a, b) for a, b in zip(readings, readings[1:]))
    else:
        measured = (readings[0] if len(readings) == 1
                    else readings[0] / readings[1])
        if claim.kind in ("target", "golden"):
            deviation = abs(measured - claim.value) / claim.value
            ok = op(deviation, claim.tolerance)
        elif isinstance(claim.value, tuple):
            lo, hi = claim.value
            ok = op(lo, measured) and op(measured, hi)
        else:
            ok = op(measured, claim.value)
    return {"metric": claim.id, "expected": claim.value,
            "measured": measured, "deviation": deviation,
            "tolerance": claim.tolerance, "ok": ok}


def paper(claim_id: str) -> Optional[float]:
    """The value the paper states for a ``target`` row, or None."""
    claim = BY_ID.get(claim_id)
    return claim.value if claim is not None and claim.kind == "target" \
        else None


# ---------------------------------------------------------------------------
# the cells
# ---------------------------------------------------------------------------

DEVICES = ("ethernet", "atm", "t3")


def _rtt(device, system, fast=False, trips=8) -> Cell:
    return cell("latency.measure_rtt", device, system, fast, trips=trips)


def _tcp(system, device, total_bytes=400_000) -> Cell:
    return cell("throughput.measure_%s_tcp_throughput" % system, device,
                total_bytes)


def _t3_udp(os_name) -> Cell:
    return cell("throughput.measure_udp_throughput", os_name, "t3", 400_000)


def _video(os_name, streams, field="utilization", duration=0.4) -> Cell:
    return cell("video.measure_video_server", os_name, streams, duration,
                pick=field)


def _client(os_name, field) -> Cell:
    return cell("video.measure_video_client", os_name, 0.4, pick=field)


def _forwarding(system, field="rtt", trips=10) -> Cell:
    return cell("forwarding.measure_%s_forwarding" % system, trips=trips,
                pick=field)


def _http(system, page, requests) -> Cell:
    return cell("http_bench.measure_%s_http" % system, page,
                requests=requests)


def _gap(factor) -> Cell:
    return cell("http_bench.cpu_scaling_sweep", trips=4,
                pick=(("cpu_factor", factor), "gap_us"))


#: Each ablation's arguments in the ledger.
_ABLATIONS = {"checksum_ablation": {"trips": 6, "total_bytes": 300_000},
              "delivery_mode_ablation": {"trips": 6},
              "view_vs_copy_ablation": {"packets": 30},
              "active_message_rtt": {"trips": 6},
              "ack_strategy_ablation": {"total_bytes": 250_000}}


def _ablation(name, *fields) -> Tuple[Cell, ...]:
    return tuple(cell("ablations." + name, pick=field, **_ABLATIONS[name])
                 for field in fields)


def _ring(length) -> Cell:
    return cell("ablations.rx_ring_ablation", frames=80,
                pick=(("ring_length", length), "dropped"))


def _demux(extensions) -> Cell:
    return cell("micro.guard_demux_cost",
                pick=(("extensions", extensions), "demux_us"))


_FIG5 = "§4.1, Figure 5"
_SEC42 = "§4.2"
_FIG6 = "§5.1, Figure 6"
_FIG7 = "Figure 7"
_HALF = "SPIN consumes only half as much of the processor"
_PIN = "the reproduction's own output, pinned: not a number the paper states"

# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    # Figure 5: UDP round trips of 8-byte messages.
    Claim("fig5.ethernet.plexus-interrupt", _FIG5,
          "Plexus at interrupt level, Ethernet: \"less than 600 µsecs\" "
          "(targeted at 565)", "target",
          (_rtt("ethernet", "plexus-interrupt"),), "<", 565.0, 0.15),
    Claim("fig5.ethernet.plexus-interrupt.under-600", _FIG5,
          "Plexus at interrupt level, Ethernet: \"less than 600 µsecs\"",
          "bound", (_rtt("ethernet", "plexus-interrupt"),), "<", 600.0),
    Claim("fig5.atm.plexus-interrupt", _FIG5,
          "Plexus at interrupt level, Fore ATM: ~350 µs", "target",
          (_rtt("atm", "plexus-interrupt"),), "<", 350.0, 0.15),
    Claim("fig5.t3.plexus-interrupt", _FIG5,
          "Plexus at interrupt level, DEC T3: ~300 µs", "target",
          (_rtt("t3", "plexus-interrupt"),), "<", 300.0, 0.15),
    Claim("fig5.ethernet-fast.plexus-interrupt", _FIG5,
          "with the faster Ethernet driver: 337 µs", "target",
          (_rtt("ethernet", "plexus-interrupt", True),), "<", 337.0, 0.15),
    Claim("fig5.atm-fast.plexus-interrupt", _FIG5,
          "with the faster ATM driver: 241 µs", "target",
          (_rtt("atm", "plexus-interrupt", True),), "<", 241.0, 0.15),
) + tuple(row for device in DEVICES for row in (
    Claim("fig5.%s.ordering" % device, _FIG5,
          "%s: the driver floor < Plexus interrupt < Plexus thread < "
          "DIGITAL UNIX" % device, "ordering",
          tuple(_rtt(device, system) for system in (
              "raw-driver", "plexus-interrupt", "plexus-thread",
              "digital-unix")), "<"),
    Claim("fig5.%s.dux-over-interrupt" % device, _FIG5,
          "%s: DIGITAL UNIX is \"substantially slower\" than Plexus at "
          "interrupt level (over 1.5x)" % device, "bound",
          (_rtt(device, "digital-unix"), _rtt(device, "plexus-interrupt")),
          ">", 1.5),
    Claim("fig5.%s.protocol-share" % device, _FIG5,
          "%s: protocol processing adds under 35%% to the driver floor "
          "(floor / Plexus interrupt within 35%% of 1)" % device, "target",
          (_rtt(device, "raw-driver"), _rtt(device, "plexus-interrupt")),
          "<", 1.0, 0.35),
)) + (
    Claim("fig5.device-ordering", _FIG5,
          "Plexus at interrupt level: Ethernet slowest, T3 fastest (wire "
          "and driver)", "ordering",
          tuple(_rtt(device, "plexus-interrupt", trips=4)
                for device in DEVICES), ">"),

    # Section 4.2: TCP throughput, and UDP on the T3.
    Claim("sec42.ethernet.plexus", _SEC42,
          "Ethernet: 8.9 Mb/s on both systems (wire-limited)", "target",
          (_tcp("plexus", "ethernet", 150_000),), "<", 8.9, 0.1),
    Claim("sec42.ethernet.unix", _SEC42,
          "Ethernet: 8.9 Mb/s on both systems (wire-limited)", "target",
          (_tcp("unix", "ethernet", 150_000),), "<", 8.9, 0.1),
    Claim("sec42.ethernet.identical", _SEC42,
          "throughput is \"much less sensitive to operating system and "
          "application overheads than latency\": DIGITAL UNIX / Plexus "
          "within 5% of 1 on the Ethernet", "target",
          (_tcp("unix", "ethernet", 150_000),
           _tcp("plexus", "ethernet", 150_000)), "<", 1.0, 0.05),
    Claim("sec42.atm.plexus", _SEC42, "Fore ATM: 33 Mb/s on Plexus",
          "target", (_tcp("plexus", "atm"),), "<", 33.0, 0.1),
    Claim("sec42.atm.unix", _SEC42, "Fore ATM: 27.9 Mb/s on DIGITAL UNIX",
          "target", (_tcp("unix", "atm"),), "<", 27.9, 0.1),
    Claim("sec42.atm.plexus-over-unix", _SEC42,
          "Fore ATM: Plexus beats DIGITAL UNIX (33 / 27.9 = 1.18), whose "
          "boundary copies cost bandwidth on programmed I/O", "bound",
          (_tcp("plexus", "atm"), _tcp("unix", "atm")), "<", (1.05, 1.4)),
    Claim("sec42.atm.raw-driver", _SEC42,
          "Fore ATM driver to driver: ~53 Mb/s", "target",
          (cell("throughput.measure_raw_throughput", "atm"),), "<", 53.0,
          0.1),
    Claim("sec42.atm.raw-above-plexus", _SEC42,
          "Fore ATM: the driver-to-driver ceiling is above TCP", "ordering",
          (cell("throughput.measure_raw_throughput", "atm"),
           _tcp("plexus", "atm")), ">"),
    Claim("sec42.t3.udp-plexus-vs-unix", _SEC42,
          "DEC T3 (TCP unmeasured, UDP substituted): Plexus at least as "
          "fast as DIGITAL UNIX, within 2%", "bound",
          (_t3_udp("spin"), _t3_udp("unix")), ">=", 0.98),
    Claim("sec42.t3.udp-wire", _SEC42,
          "DEC T3 UDP is bounded by the 45 Mb/s wire",
          "bound", (_t3_udp("spin"),), "<=", 45.0),
    Claim("sec42.t3.udp-dma", _SEC42,
          "DEC T3 UDP: the DMA device leaves the CPU to spare", "bound",
          (_t3_udp("spin"),), ">", 30.0),

    # Figure 6 and the section 5.1 client: video over the T3.
    Claim("fig6.half-the-cpu", _FIG6,
          "\"%s\" at 15 streams (DIGITAL UNIX / SPIN)" % _HALF, "bound",
          (_video("unix", 15), _video("spin", 15)), "<", (1.7, 2.5)),
    Claim("fig6.spin-meets-deadlines", _FIG6,
          "SPIN keeps up with the deadline load at 15 streams", "bound",
          (_video("spin", 15, "deadline_misses"),), "==", 0),
    Claim("fig6.saturates-at-15", _FIG6,
          "\"At 15 streams, both SPIN and DIGITAL UNIX saturate the "
          "network\" (45 Mb/s)", "bound",
          (_video("spin", 15, "delivered_mbps"),), ">", 42.0),
    Claim("fig6.no-more-past-15", _FIG6,
          "offering 21 streams delivers no more than 15 (within 2%)",
          "bound", (_video("spin", 21, "delivered_mbps"),
                    _video("spin", 15, "delivered_mbps")), "<=", 1.02),
) + tuple(
    Claim("fig6.linear.%d" % streams, _FIG6,
          "SPIN utilization grows linearly below saturation: %d streams "
          "cost %d x one stream, within 25%%" % (streams, streams), "target",
          (_video("spin", streams), _video("spin", 1)), "<", streams, 0.25)
    for streams in (1, 5, 10)) + (
    Claim("fig6.unix-cpu-wall", _FIG6,
          "past saturation (30 streams) DIGITAL UNIX runs out of processor",
          "bound", (_video("unix", 30),), ">", 0.97),
    Claim("fig6.spin-headroom", _FIG6,
          "past saturation (30 streams) SPIN still has headroom", "bound",
          (_video("spin", 30),), "<", 0.92),
    Claim("sec51.spin-display", "§5.1",
          "the client spends \"more than 90%\" of its time writing the "
          "framebuffer (SPIN)", "bound",
          (_client("spin", "display_fraction"),), ">", 0.9),
    Claim("sec51.unix-display", "§5.1",
          "the client spends \"more than 90%\" of its time writing the "
          "framebuffer (DIGITAL UNIX)", "bound",
          (_client("unix", "display_fraction"),), ">", 0.9),
    Claim("sec51.similar-cpu", "§5.1",
          "client CPU \"was similar\" on both systems: SPIN / DIGITAL UNIX "
          "within 20% of 1", "target",
          (_client("spin", "utilization"), _client("unix", "utilization")),
          "<", 1.0, 0.2),

    # Figure 7: TCP redirection.
    Claim("fig7.redirect-forwards", _FIG7,
          "the in-kernel redirect forwards every request", "bound",
          (_forwarding("plexus", "forwarded_packets"),), ">", 0),
    Claim("fig7.splice-forwards", _FIG7,
          "the user-level splice forwards every request", "bound",
          (_forwarding("unix", "forwarded_bytes"),), ">", 0),
    Claim("fig7.splice-over-redirect", _FIG7,
          "two extra stack trips and two boundary copies: the splice "
          "costs a large multiple of the in-kernel redirect", "bound",
          (_forwarding("unix"), _forwarding("plexus")), ">", 1.8),

    # Section 2: the dispatcher.
    Claim("sec2.dispatch-per-handler", "§2",
          "\"the overhead of invoking each handler is roughly one "
          "procedure call\" (1x-3x)", "bound",
          (cell("micro.dispatcher_overhead_per_handler",
                pick="ratio_to_procedure_call"),), "<=", (1.0, 3.0)),
    Claim("sec2.demux-64", "§2",
          "64 installed extensions demultiplex in under 20 us", "bound",
          (_demux(64),), "<", 20.0),
    Claim("sec2.demux-linear", "§2",
          "guard demultiplexing is linear: 64 guards cost ~16x four",
          "bound", (_demux(64), _demux(4)), "<", (8.0, 24.0)),
    Claim("sec2.install-cost", "§2",
          "extensions install \"at any point during the system's "
          "execution\": an install + remove costs microseconds", "bound",
          (cell("micro.extension_install_cost", pick="per_pair_us"),), "<",
          50.0),

    # The closing demo (section 7): HTTP, and the CPU-speed sweep.
    Claim("http.small-page", "§7",
          "per-request boundary costs dominate a 512-byte page: the "
          "user-level daemon over 1.5x the in-kernel server", "bound",
          (_http("unix", "/", 6), _http("spin", "/", 6)), ">", 1.5),
    Claim("http.large-page", "§7",
          "a 16 KB page is wire time on the Ethernet: OS structure fades "
          "(under 1.2x)", "bound",
          (_http("unix", "/big", 4), _http("spin", "/big", 4)), "<", 1.2),
    Claim("http.gap-ordering", "§7",
          "the Figure 5 Ethernet gap grows as the CPU slows (cost x2, x1, "
          "x0.5)", "ordering", (_gap(2.0), _gap(1.0), _gap(0.5)), ">"),
    Claim("http.gap-proportional", "§7",
          "the gap is proportional to CPU cost: doubling it doubles the gap",
          "bound", (_gap(2.0), _gap(1.0)), "<", (1.8, 2.2)),

    # Ablations of the design choices DESIGN.md calls out.
    Claim("abl.checksum.rtt", "§1.1",
          "UDP without checksums has a lower round trip", "ordering",
          _ablation("checksum_ablation", "rtt_no_checksum_us",
                    "rtt_checksum_us"), "<"),
    Claim("abl.checksum.throughput", "§1.1",
          "UDP without checksums has a higher throughput", "ordering",
          _ablation("checksum_ablation", "tput_no_checksum_mbps",
                    "tput_checksum_mbps"), ">"),
    Claim("abl.checksum.gain", "§1.1",
          "on the PIO ATM path the checksum is a two-digit-percent tax",
          "bound", _ablation("checksum_ablation", "tput_gain"), ">", 1.05),
    Claim("abl.delivery.penalty", "§3.3",
          "leaving the interrupt context at every raise costs latency",
          "bound", _ablation("delivery_mode_ablation", "thread_penalty_us"),
          ">", 100.0),
    Claim("abl.delivery.under-double", "§3.3",
          "thread delivery stays under twice the interrupt latency", "bound",
          _ablation("delivery_mode_ablation", "thread_us", "interrupt_us"),
          "<", 2.0),
    Claim("abl.view.penalty", "§3.2",
          "\"the safe alternative, copying, imposes unacceptable overhead\"",
          "bound", _ablation("view_vs_copy_ablation", "copy_penalty_us"), ">",
          10.0),
    Claim("abl.view.copy-slower", "§3.2",
          "copying guards cost more per packet than VIEW", "ordering",
          _ablation("view_vs_copy_ablation", "copy_us_per_packet",
                    "view_us_per_packet"), ">"),
    Claim("abl.active-messages.faster", "§3.3",
          "handlers at the Ethernet level beat UDP", "ordering",
          _ablation("active_message_rtt", "active_message_us", "udp_us"), "<"),
    Claim("abl.active-messages.saved", "§3.3",
          "skipping IP and UDP saves over 50 us a round trip", "bound",
          _ablation("active_message_rtt", "layers_saved_us"), ">", 50.0),
    Claim("abl.ack.default-not-worse", "ablation",
          "the default delayed ACK is at least as good as a sluggish one",
          "ordering",
          _ablation("ack_strategy_ablation", "default_mbps", "sluggish_mbps"),
          ">="),
    Claim("abl.ack.default-rate", "ablation",
          "the default delayed ACK keeps ATM TCP above 25 Mb/s", "bound",
          _ablation("ack_strategy_ablation", "default_mbps"), ">", 25.0),
    Claim("abl.rx-ring.sheds", "ablation",
          "a deeper receive ring sheds less of a burst (2 vs 8)", "ordering",
          (_ring(2), _ring(8)), ">"),
    Claim("abl.rx-ring.flattens", "ablation",
          "past the burst depth the ring stops mattering (8 vs 32)",
          "ordering", (_ring(8), _ring(32)), ">="),
    Claim("abl.rx-ring.deep-enough", "ablation",
          "a ring of 64 sheds none of an 80-frame burst", "bound",
          (_ring(64),), "==", 0),

    # Golden pins: the calibration's own output, at its own arguments.
    Claim("fig5.ethernet.plexus-interrupt.us", _FIG5, _PIN, "golden",
          (_rtt("ethernet", "plexus-interrupt", trips=6),), "<=", 575.0,
          0.05),
    Claim("fig5.atm.plexus-interrupt.us", _FIG5, _PIN, "golden",
          (_rtt("atm", "plexus-interrupt", trips=6),), "<=", 357.0, 0.05),
    Claim("fig5.t3.plexus-interrupt.us", _FIG5, _PIN, "golden",
          (_rtt("t3", "plexus-interrupt", trips=6),), "<=", 303.0, 0.05),
    Claim("fig5.ethernet.fast.us", _FIG5, _PIN, "golden",
          (_rtt("ethernet", "plexus-interrupt", True, trips=6),), "<=",
          341.0, 0.05),
    Claim("fig5.ethernet.unix.us", _FIG5, _PIN, "golden",
          (_rtt("ethernet", "digital-unix", trips=6),), "<=", 980.0, 0.06),
    Claim("sec42.atm.plexus.mbps", _SEC42, _PIN, "golden",
          (_tcp("plexus", "atm"),), "<=", 33.0, 0.08),
    Claim("sec42.atm.unix.mbps", _SEC42, _PIN, "golden",
          (_tcp("unix", "atm"),), "<=", 27.6, 0.08),
    Claim("sec42.ethernet.plexus.mbps", _SEC42, _PIN, "golden",
          (_tcp("plexus", "ethernet"),), "<=", 9.1, 0.05),
    Claim("fig6.cpu-ratio-at-saturation", _FIG6, _PIN, "golden",
          (_video("unix", 15, duration=0.3), _video("spin", 15, duration=0.3)),
          "<=", 2.0, 0.15),
    Claim("fig7.splice-over-plexus-ratio", _FIG7, _PIN, "golden",
          (_forwarding("unix", trips=6), _forwarding("plexus", trips=6)),
          "<=", 2.1, 0.15),
)

BY_ID: Dict[str, Claim] = {claim.id: claim for claim in CLAIMS}
