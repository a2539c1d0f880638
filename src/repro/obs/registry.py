"""The central metrics registry.

Every component counter that used to live as an ad-hoc attribute
(``FlowCache.evictions``, ``NIC.rx_filtered``, ``Engine.events_processed``,
``MbufPool.chains``, ...) is exported here under a stable dotted name.
The migration is *non-invasive*: components keep their cheap plain-int
attributes on the hot path and register zero-cost callback *sources*
(:meth:`MetricsRegistry.source`) that read them at snapshot time.  A
source registered twice under one name aggregates (sums) across
instances -- that is how per-host counters roll up testbed-wide.

Instrument handles are zero-cost when the registry is disabled: a
disabled registry records declarations (so the export schema can still
be checked) but hands out shared null instruments whose ``inc`` /
``set`` / ``observe`` are no-ops.

Snapshots are plain JSON-able dicts; :meth:`MetricsRegistry.to_json`
round-trips exactly through ``json.loads``.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "DuplicateMetricError",
    "Gauge",
    "Histogram",
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


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError("counter %s cannot decrease" % self.name)
        self.value += amount

    def read(self):
        return self.value


class Gauge:
    """A point-in-time value: set directly, or summed from source callbacks.

    With one or more sources attached, :meth:`read` returns the sum of
    every callback -- per-host counters registered under the same name
    aggregate testbed-wide.  Without sources it returns the last
    :meth:`set` value.
    """

    kind = "gauge"

    __slots__ = ("name", "description", "value", "sources")

    def __init__(self, name: str, description: str = "", fn: Optional[Callable] = None):
        self.name = name
        self.description = description
        self.value = 0
        self.sources: List[Callable] = []
        if fn is not None:
            self.sources.append(fn)

    def set(self, value) -> None:
        self.value = value

    def add_source(self, fn: Callable) -> None:
        self.sources.append(fn)

    def read(self):
        if not self.sources:
            return self.value
        total = 0
        for fn in self.sources:
            total += fn()
        return total


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are the strictly ascending upper bucket edges; an extra
    overflow bucket catches values beyond the last bound, so ``counts``
    has ``len(bounds) + 1`` entries.
    """

    kind = "histogram"

    __slots__ = ("name", "description", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float], description: str = ""):
        edges = tuple(float(bound) for bound in bounds)
        if not edges:
            raise MetricError("histogram %s needs at least one bucket bound" % name)
        for left, right in zip(edges, edges[1:]):
            if not left < right:
                raise MetricError(
                    "histogram %s bounds must be strictly increasing, got %r" % (name, bounds)
                )
        self.name = name
        self.description = description
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile as a bucket upper edge.

        The same rank rule :func:`repro.obs.slo.percentile` applies to
        raw samples, resolved at bucket granularity: the upper bound of
        the bucket holding the ranked observation (``inf`` when it falls
        in the overflow bucket).  Deterministic for any observation
        order, since only the counts matter.
        """
        if self.count <= 0:
            raise MetricError("histogram %s has no observations" % self.name)
        if not 0.0 < q <= 1.0:
            raise MetricError("percentile q must be in (0, 1], got %r" % (q,))
        rank = max(0, math.ceil(q * self.count) - 1)
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if rank < seen:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")

    def read(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class _NullCounter:
    kind = "counter"

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def read(self):
        return 0


class _NullGauge:
    kind = "gauge"

    __slots__ = ()

    def set(self, value) -> None:
        pass

    def add_source(self, fn: Callable) -> None:
        pass

    def read(self):
        return 0


class _NullHistogram:
    kind = "histogram"

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def read(self):
        return {"bounds": [], "counts": [], "count": 0, "sum": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments behind a validated, collision-checked namespace."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}
        self._declared: Dict[str, Dict[str, str]] = {}

    # -- declaration -----------------------------------------------------

    def _declare(self, name: str, kind: str, description: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(
                "invalid metric name %r: want dotted lowercase like 'spin.flowcache.hits'" % name
            )
        if name in self._declared:
            raise DuplicateMetricError(
                "metric %r already registered as a %s" % (name, self._declared[name]["type"])
            )
        self._declared[name] = {"type": kind, "description": description}

    def counter(self, name: str, description: str = "") -> Counter:
        self._declare(name, "counter", description)
        if not self.enabled:
            return _NULL_COUNTER
        instrument = Counter(name, description)
        self._instruments[name] = instrument
        return instrument

    def gauge(self, name: str, description: str = "", fn: Optional[Callable] = None) -> Gauge:
        self._declare(name, "gauge", description)
        if not self.enabled:
            return _NULL_GAUGE
        instrument = Gauge(name, description, fn=fn)
        self._instruments[name] = instrument
        return instrument

    def source(self, name: str, fn: Callable, description: str = "") -> Gauge:
        """Register (or extend) an aggregating callback gauge.

        The first call under ``name`` creates the gauge; later calls add
        ``fn`` as another source, so identical per-instance counters
        (one NIC per host, say) sum into one testbed-wide metric.
        """
        info = self._declared.get(name)
        if info is None:
            return self.gauge(name, description, fn=fn)
        if info["type"] != "gauge":
            raise DuplicateMetricError(
                "metric %r already registered as a %s" % (name, info["type"])
            )
        instrument = self._instruments.get(name)
        if instrument is None:
            return _NULL_GAUGE
        instrument.add_source(fn)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float], description: str = "") -> Histogram:
        self._declare(name, "histogram", description)
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = Histogram(name, bounds, description)
        self._instruments[name] = instrument
        return instrument

    # -- introspection ---------------------------------------------------

    def names(self) -> List[str]:
        """Every declared metric name, sorted (disabled declarations too)."""
        return sorted(self._declared)

    def describe(self) -> Dict[str, Dict[str, str]]:
        return {name: dict(info) for name, info in self._declared.items()}

    def get(self, name: str):
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._declared

    def __len__(self) -> int:
        return len(self._declared)

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
    one registry: counters and gauges sum, histograms with identical
    bounds sum bucket-wise (``counts``/``count``/``sum``).  The merge is
    order-independent for int values, and partition results are always
    combined in partition-index order so float sums are deterministic
    too.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            kind = record["type"]
            value = record["value"]
            current = merged.get(name)
            if current is None:
                if kind == "histogram":
                    value = {
                        "bounds": list(value["bounds"]),
                        "counts": list(value["counts"]),
                        "count": value["count"],
                        "sum": value["sum"],
                    }
                merged[name] = {"type": kind, "value": value}
                continue
            if current["type"] != kind:
                raise MetricError(
                    "metric %r is a %s in one partition and a %s in another"
                    % (name, current["type"], kind))
            if kind == "histogram":
                target = current["value"]
                if list(target["bounds"]) != list(value["bounds"]):
                    raise MetricError(
                        "histogram %r has mismatched bounds across partitions"
                        % name)
                if len(target["counts"]) != len(value["counts"]):
                    # zip() would silently truncate the longer side and
                    # drop tail buckets from the merge.
                    raise MetricError(
                        "histogram %r has %d buckets in one partition and "
                        "%d in another"
                        % (name, len(target["counts"]),
                           len(value["counts"])))
                target["counts"] = [a + b for a, b in
                                    zip(target["counts"], value["counts"])]
                target["count"] += value["count"]
                target["sum"] += value["sum"]
            else:
                current["value"] += value
    return dict(sorted(merged.items()))
