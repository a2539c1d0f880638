"""The central metrics registry.

Every component counter that used to live as an ad-hoc attribute
(``FlowCache.evictions``, ``NIC.rx_filtered``, ``Engine.events_processed``,
``MbufPool.chains``, ...) is exported here under a stable dotted name.
The migration is *non-invasive*: components keep their cheap plain-int
attributes on the hot path and register zero-cost callback *sources*
(:meth:`MetricsRegistry.source`) that read them at snapshot time.  A
source registered twice under one name aggregates (sums) across
instances -- that is how per-host counters roll up testbed-wide.

Every instrument is a :class:`Gauge` fed by such sources.

Snapshots are plain JSON-able dicts; :meth:`MetricsRegistry.to_json`
round-trips exactly through ``json.loads``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "DuplicateMetricError",
    "Gauge",
    "MetricError",
    "MetricsRegistry",
    "merge_snapshots",
]

#: Metric names are dotted lowercase paths with at least two components:
#: ``<namespace>.<...>.<leaf>``, each component ``[a-z0-9_]+``.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


class MetricError(ValueError):
    """Raised on invalid metric declarations or updates."""


class DuplicateMetricError(MetricError):
    """Raised when a metric name is registered twice."""


class Gauge:
    """A point-in-time value summed from source callbacks.

    :meth:`read` returns the sum of every callback -- per-host counters
    registered under the same name aggregate testbed-wide.
    """

    kind = "gauge"

    __slots__ = ("name", "description", "sources")

    def __init__(self, name: str, description: str = "", fn: Optional[Callable] = None):
        self.name = name
        self.description = description
        self.sources: List[Callable] = []
        if fn is not None:
            self.sources.append(fn)

    def add_source(self, fn: Callable) -> None:
        self.sources.append(fn)

    def read(self):
        total = 0
        for fn in self.sources:
            total += fn()
        return total


class MetricsRegistry:
    """Named gauges behind a validated, collision-checked namespace."""

    def __init__(self):
        self._instruments: Dict[str, Gauge] = {}

    # -- declaration -----------------------------------------------------

    def gauge(self, name: str, description: str = "", fn: Optional[Callable] = None) -> Gauge:
        if not _NAME_RE.match(name):
            raise MetricError(
                "invalid metric name %r: want dotted lowercase like 'spin.flowcache.hits'" % name
            )
        if name in self._instruments:
            raise DuplicateMetricError("metric %r already registered" % name)
        instrument = Gauge(name, description, fn=fn)
        self._instruments[name] = instrument
        return instrument

    def source(self, name: str, fn: Callable, description: str = "") -> Gauge:
        """Register (or extend) an aggregating callback gauge.

        The first call under ``name`` creates the gauge; later calls add
        ``fn`` as another source, so identical per-instance counters
        (one NIC per host, say) sum into one testbed-wide metric.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            return self.gauge(name, description, fn=fn)
        instrument.add_source(fn)
        return instrument

    # -- introspection ---------------------------------------------------

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """A plain JSON-able ``{name: {"type", "value"}}`` dict."""
        out = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            out[name] = {"type": instrument.kind, "value": instrument.read()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


def merge_snapshots(snapshots: Sequence[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Roll per-partition registry snapshots up into one testbed view.

    The partitioned simulation mode gives every partition its own
    registry (live instruments cannot cross process boundaries); this
    merges their :meth:`MetricsRegistry.snapshot` outputs the same way
    aggregating gauge sources already roll per-host counters up within
    one registry: values sum.  The merge is order-independent for int
    values, and partition results are always combined in partition-index
    order so float sums are deterministic too.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            current = merged.get(name)
            if current is None:
                merged[name] = {"type": record["type"], "value": record["value"]}
            elif current["type"] != record["type"]:
                raise MetricError(
                    "metric %r is a %s in one partition and a %s in another"
                    % (name, current["type"], record["type"])
                )
            else:
                current["value"] += record["value"]
    return dict(sorted(merged.items()))
