"""Span tracing: per-packet path timelines in simulated time.

A :class:`SpanTracer` records one :class:`Span` per completed CPU frame
(kernel path entry, dispatched event, executed closure) plus one per
NIC frame transmit/receive, each stamped with the simulated time it
began, its nesting depth, and the CPU microseconds charged *directly*
inside it (self time -- children account for their own).  Together the
records read as a timeline of the packet path the paper's Figure 5
walks: NIC rx -> interrupt body -> dispatcher events -> protocol
handlers -> socket delivery.

The trace is the ring :class:`~repro.obs.taps.RingTracer` provides (the
one :class:`repro.net.trace.PacketTracer` uses): the tail of a long run
is always retained and ``dropped_records`` counts the overwrites.  The
tracer is a plain listener on the two seams of :mod:`repro.obs.taps`
(``cpu.profile``, ``nic.taps``) and only reads ``engine.now``, so
attaching it never perturbs simulated time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from .taps import CpuHook, RingTracer

__all__ = ["Span", "SpanTracer"]


class Span:
    """One completed frame (or NIC event) on the simulated timeline."""

    __slots__ = ("time", "host", "depth", "label", "kind", "charged_us")

    def __init__(
        self,
        time: float,
        host: str,
        depth: int,
        label: str,
        kind: str,
        charged_us: float,
    ):
        self.time = time
        self.host = host
        self.depth = depth
        self.label = label
        self.kind = kind  # "cpu" | "tx" | "rx"
        self.charged_us = charged_us

    def __repr__(self) -> str:
        return "<Span %9.1f %s %s %s %.2fus>" % (
            self.time,
            self.host,
            self.kind,
            self.label,
            self.charged_us,
        )


class SpanTracer(RingTracer):
    """Ring-buffered timeline of CPU frames and NIC activity."""

    noun = "spans"

    def __init__(self, engine, limit: int = 4096):
        super().__init__(engine, limit)
        self._open: Dict[CpuHook, List[List]] = defaultdict(list)

    # -- listener interface (cpu.profile) --------------------------------

    def on_push(self, hook: CpuHook, label: str) -> None:
        # [start time, label, depth, self-charge accumulator]
        self._open[hook].append([self.engine.now, label, len(hook.frames), 0.0])

    def on_pop(self, hook: CpuHook, label: str) -> None:
        start, opened_label, depth, charged = self._open[hook].pop()
        self._record(Span(start, hook.host_name, depth, opened_label, "cpu", charged))

    def on_charge(self, hook: CpuHook, category: str, amount: float) -> None:
        open_frames = self._open[hook]
        if open_frames:
            open_frames[-1][3] += amount

    # -- listener interface (nic.taps) -----------------------------------

    def on_tx(self, nic, data) -> None:
        self._wire(nic, "tx")

    def on_rx(self, nic, frame, accepted: bool) -> None:
        self._wire(nic, "rx")

    def _wire(self, nic, kind: str) -> None:
        host = nic.host.name if nic.host is not None else nic.name
        self._record(Span(self.engine.now, host, 0, nic.name, kind, 0.0))

    # -- rendering -------------------------------------------------------

    def _line(self, span: Span) -> str:
        """Timeline text; spans appear in completion order, depth-indented."""
        if span.kind == "cpu":
            detail = "%s (%.2fus)" % (span.label, span.charged_us)
        else:
            detail = "%s %s" % (span.kind, span.label)
        return "%10.1f  %-10s %s%s" % (span.time, span.host, "  " * span.depth, detail)
