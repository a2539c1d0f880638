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
* :class:`SloTracker` -- the critical path.  On the same two seams
  (``cpu.profile``, ``nic.taps``; :mod:`repro.obs.taps`) as the profiler
  and :class:`~repro.obs.spans.SpanTracer`, it walks one request's path
  back from its end; the path's edges sum to the latency bit-exactly in
  integer nanoseconds, under generated scans and the scan twin alike.

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

#: The components :class:`SloTracker` books a request's path to.
ATTRIBUTED_COMPONENTS = ("cpu_service", "nic_ring", "propagation", "stall")

#: All legal component keys: a lifecycle without a tracker books the
#: whole latency under ``unattributed`` so reconciliation still holds.
COMPONENTS = ATTRIBUTED_COMPONENTS + ("unattributed",)


def to_ns(time_us: float) -> int:
    """A simulated-time float (microseconds) as integer nanoseconds.

    The same quantization the profiler's folded output uses
    (``round(us * 1000.0)``).  Integer waypoint timestamps are what make
    the decomposition telescope: each component is a sum of differences
    of waypoints along one chain, so their sum is exactly
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
        "overlapped_ns",
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
        #: CPU held in the window off the critical path (None untracked).
        self.overlapped_ns: Optional[int] = None

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
    """Critical-path attribution for one outstanding request at a time.

    ``attach(hosts, nics)`` subscribes to each host's ``cpu.profile`` (a
    kernel path's push, at depth 0, and the end of its CPU hold, the
    ``on_consume``) and each NIC's ``taps`` (tx, rx).  While a request is
    open, each waypoint is logged with the waypoint that enabled it, and
    the edge between the two is one component:

    * a hold's end is enabled by the push that started it:
      ``cpu_service``;
    * an ``interrupt_body`` push, by the oldest frame its host's rings
      admitted that no interrupt has serviced yet: ``nic_ring`` (the
      device's receive latency, and any wait for a busy CPU);
    * any other push, by the previous CPU waypoint on its host: ``stall``
      (a timer, a blocked process, a wait for the run queue);
    * a received frame, by the end of the hold that staged the same
      ``frame.data`` object: ``propagation`` (the transmit queue, the
      wire, the switches).

    A waypoint whose enabler precedes the request is enabled by its
    begin.  :meth:`close_request` walks back from the latest CPU waypoint
    (``stall`` up to the end) to the begin, booking each edge's integer
    nanoseconds, so the components telescope to ``total_ns``.  CPU held
    in the window off that path -- a DIGITAL UNIX ``recvfrom`` entering
    while its datagram is on the wire -- is ``overlapped_ns``.

    Single-outstanding by design: the state is global across the
    attached hosts, so it serves closed-loop probes, not open-loop
    floods (those get percentiles from :class:`RequestLifecycle`).
    """

    def __init__(self, engine):
        self.engine = engine
        self._request: Optional[Request] = None

    # -- lifecycle interface ---------------------------------------------

    def open_request(self, request: Request) -> None:
        if self._request is not None:
            raise RuntimeError(
                "SloTracker decomposes one outstanding request at a time "
                "(%r is still open)" % (self._request,)
            )
        self._request = request
        # A waypoint is [time_us, component, enabler, end_us, ...]: the edge
        # from ``enabler`` to it is ``component``.  A push carries its hold's
        # end and the previous push; the walk arrives at a hold's end.
        self._begin = self._latest = [request.begin_us, None, None, None]
        self._holds = None  # the latest push
        self._cpu = {}  # host -> its latest push
        self._ring = {}  # host -> its unserviced frames, oldest first
        # id(data) -> (data, the push that staged it); holding data keeps its id unique
        self._staged = {}

    def close_request(self, request: Request) -> None:
        if self._request is not request:
            raise ValueError("closing %r but %r is open" % (request, self._request))
        self._request = None
        parts = request.components = dict.fromkeys(ATTRIBUTED_COMPONENTS, 0)
        begin = self._begin
        node, edge = self._latest, "stall"
        at_us, at_ns = request.end_us, request.end_ns
        while node is not begin:
            end = node[3]
            if end is not None:
                # Cross the hold, and take it off the holds beside the path.
                node[3] = None
                ns = at_ns if end == at_us else round(end * 1000.0)
                parts[edge] += at_ns - ns
                edge, at_us, at_ns = "cpu_service", end, ns
            when = node[0]
            ns = at_ns if when == at_us else round(when * 1000.0)
            parts[edge] += at_ns - ns
            edge, at_us, at_ns, node = node[1], when, ns, node[2]
        parts[edge] += at_ns - request.begin_ns
        overlapped = 0
        hold = self._holds
        while hold is not None:
            end = hold[3]
            if end is not None:
                overlapped += round(end * 1000.0) - round(hold[0] * 1000.0)
            hold = hold[4]
        request.overlapped_ns = overlapped

    # -- listener interface (cpu.profile) --------------------------------

    def on_push(self, hook: CpuHook, label: str) -> None:
        # The hook calls it at depth 0 only: a kernel path's entry.
        if self._request is None:
            return
        host = hook.host
        if label == "interrupt_body":
            ring = self._ring
            frames = ring[host] if host in ring else ()
            ring[host] = frames[1:]
            enabler, edge = frames[0] if frames else self._begin, "nic_ring"
        else:
            cpu = self._cpu
            enabler, edge = cpu[host] if host in cpu else self._begin, "stall"
        push = [self.engine.now, edge, enabler, None, self._holds]
        self._cpu[host] = self._latest = self._holds = push

    def on_consume(self, hook: CpuHook, amount: float) -> None:
        if self._request is None:
            return
        host = hook.host
        cpu = self._cpu
        if host not in cpu:  # a hold that began before the request
            cpu[host] = self._holds = [self._begin[0], "stall", self._begin, None, self._holds]
        hold = self._latest = cpu[host]
        hold[3] = self.engine.now

    # -- listener interface (nic.taps) -----------------------------------

    def on_tx(self, nic, data) -> None:
        if self._request is None:
            return
        host = nic.host
        cpu = self._cpu
        self._staged[id(data)] = (data, cpu[host] if host in cpu else self._begin)

    def on_rx(self, nic, frame, accepted: bool) -> None:
        if self._request is None or not accepted or nic.rx_pending >= nic.rx_ring_len:
            return
        staged = self._staged
        key = id(frame.data)
        sent = staged[key][1] if key in staged else self._begin
        waypoint = [self.engine.now, "propagation", sent, None]
        host = nic.host
        ring = self._ring
        ring[host] = ring[host] + (waypoint,) if host in ring else (waypoint,)
