"""Unified observability: metrics registry, CPU profiler, span tracer.

Cooperating pieces, all strictly off-by-default on the simulated
timeline (attaching any of them never changes a fingerprint):

* :mod:`repro.obs.taps` -- the two seams observers subscribe to
  (``cpu.profile``, ``nic.taps``; ``None`` while unobserved), their
  listener methods, and the one :class:`Observer` attach/detach that
  lets observers come and go in any order.  ``cpu.profile`` is also the
  one per-charge record; listeners hear frames, not charges.
* :mod:`repro.obs.registry` -- a central :class:`MetricsRegistry` of
  named gauges (summed callback sources) behind a stable dotted
  namespace (``spin.dispatcher.raises``, ``hw.nic.rx_filtered``, ...)
  with a JSON snapshot API.  Components expose
  ``register_metrics(registry)``;
  :func:`repro.obs.wire.instrument_testbed` wires a whole testbed.
* :mod:`repro.obs.profiler` -- a simulated-CPU profiler that reads the
  hooks' tables, which attribute every charged microsecond to a
  ``(host, domain, component, operation)`` stack, and emits folded-stack
  files renderable as flamegraphs.
* :mod:`repro.obs.spans` -- per-packet path timelines (NIC rx ->
  dispatcher -> handlers -> socket) in simulated time, in the same
  capped ring :class:`repro.net.trace.PacketTracer` keeps its frames in.

Command line::

    python -m repro.obs --workload tcp_bulk --folded out.folded
"""

from .profiler import CpuProfiler
from .registry import (
    DuplicateMetricError,
    Gauge,
    MetricError,
    MetricsRegistry,
)
from .schema import EXPORT_SCHEMA, undocumented_metrics
from .slo import Request, RequestLifecycle, SloTracker, percentile, to_ns
from .spans import Span, SpanTracer
from .taps import CpuHook
from .wire import instrument_testbed

__all__ = [
    "CpuHook",
    "CpuProfiler",
    "DuplicateMetricError",
    "EXPORT_SCHEMA",
    "Gauge",
    "MetricError",
    "MetricsRegistry",
    "Request",
    "RequestLifecycle",
    "SloTracker",
    "Span",
    "SpanTracer",
    "instrument_testbed",
    "percentile",
    "to_ns",
    "undocumented_metrics",
]
