"""Per-request latency accounting: the SLO layer over simulated time.

The paper's benchmarks (and :mod:`repro.bench.latency`) report *mean*
round-trip latency; the ROADMAP's "heavy traffic from millions of users"
north star is a tail-latency story.  This module adds the request
lifecycle machinery both views share:

* :func:`percentile` -- the one nearest-rank percentile implementation
  used everywhere (Figure 5 summaries, SLO fingerprints), so
  p50/p99/p999 can never disagree between harnesses.
* :class:`RequestLifecycle` -- begin/end hooks stamped with simulated
  time.  Latency is kept twice, deliberately: as the float microsecond
  difference ``engine.now - begin_us`` (bit-identical to the historical
  ``samples.append(engine.now - start)`` arithmetic, so Figure 5 means
  are unchanged), and as integer simulated *nanoseconds*
  (:func:`to_ns`), which is what fingerprints and the reconciliation
  guarantee are stated in -- integer waypoint differences telescope
  exactly, float interval sums do not.
* :class:`SloTracker` -- queueing-delay attribution.  It listens on the
  same two seams (``cpu.profile``, ``nic.taps``; :mod:`repro.obs.taps`)
  as the profiler and :class:`~repro.obs.spans.SpanTracer`, and
  decomposes one outstanding request's latency into CPU service,
  NIC-ring wait, propagation, and (retransmit) stall.  Every interval
  between consecutive waypoints is attributed to exactly one component,
  so the component sum equals the end-to-end latency bit-exactly in
  integer nanoseconds -- the invariant ``tests/test_slo.py`` enforces
  under generated scans and under the reference scan twin.

Attribution convention: the cost-charging discipline runs kernel code
synchronously (push/pop at one instant) and then *holds* the CPU for the
charged amount, reporting it through ``on_consume`` at the hold's end --
so the trailing ``amount`` of the interval ending at each consume is
``cpu_service``.  The remainder of each interval goes to the prevailing
wire state: a received frame waiting for its interrupt is ``nic_ring``;
a transmitted frame still unreceived is ``propagation`` up to
``propagation_bound_us`` past the last transmit and ``stall`` beyond
(the frame was lost; the wire cannot still be carrying it); anything
else -- retransmit timers, CPU-queue waits -- is ``stall``.  The
decomposition is a deterministic account, exact in total; the
per-component split is a documented convention, not a claim about
simultaneity.

Attaching a lifecycle or tracker never perturbs simulated time: both
only *read* ``engine.now`` (the fingerprint-equality tests enforce
this, as they do for the profiler and span tracer).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .taps import CpuHook, Observer

__all__ = [
    "ATTRIBUTED_COMPONENTS",
    "COMPONENTS",
    "Request",
    "RequestLifecycle",
    "SloTracker",
    "percentile",
    "to_ns",
]

#: The components :class:`SloTracker` attributes intervals to.
ATTRIBUTED_COMPONENTS = ("cpu_service", "nic_ring", "propagation", "stall")

#: All legal component keys: a lifecycle without a tracker books the
#: whole latency under ``unattributed`` so reconciliation still holds.
COMPONENTS = ATTRIBUTED_COMPONENTS + ("unattributed",)

def to_ns(time_us: float) -> int:
    """A simulated-time float (microseconds) as integer nanoseconds.

    The same quantization the profiler's folded output uses
    (``round(us * 1000.0)``).  Integer waypoint timestamps are what make
    the decomposition telescope: component values are differences of
    consecutive ``to_ns`` waypoints, so their sum is exactly
    ``to_ns(end) - to_ns(begin)`` with no float accumulation error.
    """
    return round(time_us * 1000.0)


def percentile(ordered: Sequence, q: float):
    """Nearest-rank percentile of an ascending-sorted sequence.

    ``percentile(s, 0.5)`` is the smallest element with at least half
    the mass at or below it: ``s[ceil(q * n) - 1]``.  Works on floats
    and ints alike (fingerprints feed integer nanoseconds) and always
    returns an element of the input, never an interpolation -- which is
    what keeps percentile fingerprints bit-deterministic.
    """
    if not ordered:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile q must be in (0, 1], got %r" % (q,))
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Request:
    """One request's lifetime: begin/end stamps plus the decomposition."""

    __slots__ = (
        "kind",
        "seq",
        "begin_us",
        "begin_ns",
        "end_us",
        "end_ns",
        "latency_us",
        "total_ns",
        "components",
    )

    def __init__(self, kind: str, seq, begin_us: float):
        self.kind = kind
        self.seq = seq
        self.begin_us = begin_us
        self.begin_ns = to_ns(begin_us)
        self.end_us: Optional[float] = None
        self.end_ns: Optional[int] = None
        self.latency_us: Optional[float] = None
        self.total_ns: Optional[int] = None
        self.components: Dict[str, int] = {}

    @property
    def done(self) -> bool:
        return self.end_ns is not None

    def component_sum_ns(self) -> int:
        """The decomposition total; equals ``total_ns`` once ended."""
        return sum(self.components.values())

    def __repr__(self) -> str:
        if not self.done:
            return "<Request %s seq=%r open since %.1f>" % (self.kind, self.seq, self.begin_us)
        return "<Request %s seq=%r %d ns %r>" % (
            self.kind,
            self.seq,
            self.total_ns,
            self.components,
        )


class RequestLifecycle:
    """Begin/end bookkeeping for every request a workload serves.

    One lifecycle per testbed.  ``begin`` stamps ``engine.now``; ``end``
    computes the latency with the exact float arithmetic the historical
    sample lists used (``engine.now - begin_us``) plus the integer-ns
    total the fingerprints and the reconciliation guarantee are stated
    in.  With a :class:`SloTracker` attached, ending a request closes
    its decomposition; without one, the whole latency is booked as
    ``unattributed`` so component sums always reconcile.
    """

    def __init__(self, engine, tracker: Optional["SloTracker"] = None):
        self.engine = engine
        self.tracker = tracker
        self.completed: List[Request] = []
        self.open_requests = 0

    # -- request lifetime ------------------------------------------------

    def begin(self, kind: str, seq=None) -> Request:
        request = Request(kind, seq, self.engine.now)
        self.open_requests += 1
        if self.tracker is not None:
            self.tracker.open_request(request)
        return request

    def end(self, request: Request) -> Request:
        if request.done:
            raise ValueError("request %r ended twice" % (request,))
        now = self.engine.now
        request.end_us = now
        request.latency_us = now - request.begin_us
        request.end_ns = to_ns(now)
        request.total_ns = request.end_ns - request.begin_ns
        if self.tracker is not None:
            self.tracker.close_request(request)
        else:
            request.components = {"unattributed": request.total_ns}
        self.open_requests -= 1
        self.completed.append(request)
        return request

    # -- readouts --------------------------------------------------------

    def samples_us(self, kind: Optional[str] = None) -> List[float]:
        """Completion-order float latencies, exactly as a hand-kept
        ``samples.append(engine.now - start)`` list would read."""
        return [r.latency_us for r in self.completed if kind is None or r.kind == kind]

    def samples_ns(self, kind: Optional[str] = None) -> List[int]:
        return [r.total_ns for r in self.completed if kind is None or r.kind == kind]

    def summary(self, kind: Optional[str] = None):
        """The :class:`repro.bench.stats.Summary` of the float samples."""
        from ..bench.stats import summarize

        return summarize(self.samples_us(kind))

    def percentiles_ns(self, kind: Optional[str] = None) -> Dict[str, int]:
        """The integer-ns percentile record fingerprints are built from."""
        ordered = sorted(self.samples_ns(kind))
        return {
            "n": len(ordered),
            "p50_ns": percentile(ordered, 0.50),
            "p99_ns": percentile(ordered, 0.99),
            "p999_ns": percentile(ordered, 0.999),
            "max_ns": ordered[-1],
            "sum_ns": sum(ordered),
        }

    def component_totals_ns(self, kind: Optional[str] = None) -> Dict[str, int]:
        totals = {name: 0 for name in COMPONENTS}
        for request in self.completed:
            if kind is None or request.kind == kind:
                for name, value in request.components.items():
                    totals[name] += value
        return totals

class SloTracker(Observer):
    """Queueing-delay attribution for one outstanding request at a time.

    ``attach(hosts, nics)`` subscribes to each host's ``cpu.profile``
    (CPU frame push and consume; a pop shares its push's instant) and
    each NIC's ``taps`` (tx/rx entry).  Between any two consecutive
    waypoints the elapsed integer nanoseconds split deterministically:

    * the trailing ``amount`` of the interval ending at an
      ``on_consume`` -> ``cpu_service`` (kernel paths charge their cost
      synchronously, then hold the CPU for it; the consume callback
      marks the hold's end),
    * the remainder: a received frame waiting for its interrupt ->
      ``nic_ring``,
    * else a transmitted frame still unreceived -> ``propagation`` up to
      ``propagation_bound_us`` past the last transmit, ``stall`` beyond
      (the frame was lost; the wire cannot still be carrying it),
    * else -> ``stall`` (retransmit timers, CPU-queue waits).

    Single-outstanding by design: the tracker's state is global across
    the attached hosts, so it serves closed-loop probes (Figure 5 style
    ping-pong, sequential object fetches), not concurrent open-loop
    floods -- those get percentiles from :class:`RequestLifecycle` and
    no decomposition.
    """

    def __init__(self, engine, propagation_bound_us: float = 5000.0):
        if propagation_bound_us <= 0:
            raise ValueError("propagation_bound_us must be positive")
        self.engine = engine
        self.propagation_bound_us = float(propagation_bound_us)
        self._bound_ns = round(self.propagation_bound_us * 1000.0)
        self._in_flight = 0
        self._in_ring = False
        self._last_tx_ns: Optional[int] = None
        self._request: Optional[Request] = None
        self._last_ns = 0
        # The instant of the latest waypoint, as engine.now and in ns.
        self._now_us: Optional[float] = None
        self._now_ns = 0

    # -- lifecycle interface ---------------------------------------------

    def open_request(self, request: Request) -> None:
        if self._request is not None:
            raise RuntimeError(
                "SloTracker decomposes one outstanding request at a time "
                "(%r is still open)" % (self._request,)
            )
        # Wire state is reset at begin -- anything still in flight
        # belongs to a previous, lost exchange.
        self._in_flight = 0
        self._in_ring = False
        self._last_tx_ns = None
        request.components = {name: 0 for name in ATTRIBUTED_COMPONENTS}
        self._request = request
        self._last_ns = request.begin_ns

    def close_request(self, request: Request) -> None:
        if self._request is not request:
            raise ValueError("closing %r but %r is open" % (request, self._request))
        self._advance(request.end_ns)
        self._request = None

    # -- the state machine -----------------------------------------------

    def _advance(self, now_ns: int, cpu_tail_ns: int = 0) -> None:
        """Attribute [last waypoint, now), then move the waypoint.

        ``cpu_tail_ns`` is the CPU hold that just ended (an
        ``on_consume``): that many trailing nanoseconds -- clamped to the
        interval, the two roundings can disagree by one -- are
        ``cpu_service``; the rest goes to the prevailing wire state.
        """
        request = self._request
        if request is None:
            return
        elapsed = now_ns - self._last_ns
        if elapsed <= 0:
            return
        components = request.components
        cpu = cpu_tail_ns if cpu_tail_ns < elapsed else elapsed
        rest = elapsed - cpu
        if rest > 0:
            rest_end = self._last_ns + rest
            if self._in_ring:
                components["nic_ring"] += rest
            elif self._in_flight > 0 and self._last_tx_ns is not None:
                horizon = self._last_tx_ns + self._bound_ns
                wire = (rest_end if rest_end < horizon else horizon) - self._last_ns
                if wire < 0:
                    wire = 0
                components["propagation"] += wire
                components["stall"] += rest - wire
            else:
                components["stall"] += rest
        if cpu > 0:
            components["cpu_service"] += cpu
        self._last_ns = now_ns

    # -- listener interface (cpu.profile) --------------------------------
    # Each moves the waypoint to engine.now once per instant (a path shares one).

    def on_push(self, hook: CpuHook, label: str) -> None:
        now = self.engine.now
        if now != self._now_us:
            self._now_us = now
            self._now_ns = now_ns = round(now * 1000.0)
            self._advance(now_ns)
        self._in_ring = False

    def on_consume(self, hook: CpuHook, amount: float) -> None:
        now = self.engine.now
        if now != self._now_us:
            self._now_us = now
            self._now_ns = now_ns = round(now * 1000.0)
            self._advance(now_ns, round(amount * 1000.0))

    # -- listener interface (nic.taps) -----------------------------------

    def on_tx(self, nic, data) -> None:
        now = self.engine.now
        if now != self._now_us:
            self._now_us = now
            self._now_ns = now_ns = round(now * 1000.0)
            self._advance(now_ns)
        self._in_flight += 1
        self._last_tx_ns = self._now_ns

    def on_rx(self, nic, frame, accepted: bool) -> None:
        now = self.engine.now
        if now != self._now_us:
            self._now_us = now
            self._now_ns = now_ns = round(now * 1000.0)
            self._advance(now_ns)
        if self._in_flight > 0:
            self._in_flight -= 1
        self._in_ring = True
