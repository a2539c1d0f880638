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

from typing import NamedTuple

from .taps import CpuHook, RingTracer

__all__ = ["Span", "SpanTracer"]


class Span(NamedTuple):
    """One completed frame (or NIC event) on the simulated timeline."""

    time: float
    host: str
    depth: int
    label: str
    kind: str  # "cpu" | "tx" | "rx"
    charged_us: float


class SpanTracer(RingTracer):
    """Ring-buffered timeline of CPU frames and NIC activity."""

    noun = "spans"

    def __init__(self, engine, limit: int = 4096):
        super().__init__(engine, limit)

    @property
    def records(self) -> list:
        """Retained spans, oldest first (the ring holds plain tuples)."""
        return list(map(Span._make, self._ring))

    # -- listener interface (cpu.profile) --------------------------------
    # Each listener appends to the ring itself: no helper frame per span.

    def on_pop(self, hook: CpuHook, label: str, charged_us: float) -> None:
        # The frame stack is the hook's, so a tracer may join mid-frame;
        # the frame opened at this instant, under the frames still open.
        self._ring.append((self.engine.now, hook.host_name, hook.depth, label, "cpu", charged_us))
        self._recorded += 1

    # -- listener interface (nic.taps) -----------------------------------

    def on_tx(self, nic, data) -> None:
        host = nic.host.name if nic.host is not None else nic.name
        self._ring.append((self.engine.now, host, 0, nic.name, "tx", 0.0))
        self._recorded += 1

    def on_rx(self, nic, frame, accepted: bool) -> None:
        host = nic.host.name if nic.host is not None else nic.name
        self._ring.append((self.engine.now, host, 0, nic.name, "rx", 0.0))
        self._recorded += 1

    # -- rendering -------------------------------------------------------

    def _line(self, span: Span) -> str:
        """Timeline text; spans appear in completion order, depth-indented."""
        if span.kind == "cpu":
            detail = "%s (%.2fus)" % (span.label, span.charged_us)
        else:
            detail = "%s %s" % (span.kind, span.label)
        return "%10.1f  %-10s %s%s" % (span.time, span.host, "  " * span.depth, detail)
