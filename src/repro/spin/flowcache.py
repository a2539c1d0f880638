"""Compiled per-flow delivery paths (the flow cache).

The paper's demultiplexing walks the Plexus protocol graph by evaluating
every installed guard at every layer for every packet, and treats that
guard overhead as the cost to engineer away.  Guard verdicts, however,
are functions of the *flow* -- (ethertype, IP protocol, addresses,
ports) -- not of the individual packet, so they can be computed once per
flow and replayed.  A plan is compiled when the flow *repeats*: the
first raise of an event along a flow at a given handler snapshot runs
the interpreted scan and only remembers the snapshot; the second raise
at that same snapshot records which handlers matched and compiles the
plan; later packets skip the guard calls and run the compiled chain
directly.  A one-shot flow, or one whose snapshot changes between its
raises (handlers installed and uninstalled under it), never pays for a
compile.

Replay is a pure host-side (wall-clock) optimization.  It charges the
identical simulated ``guard_eval`` / ``dispatch_per_handler`` costs, in
the identical order, as the linear scan would -- simulated time stays
bit-identical whether the cache is on or off.

Invalidation is by snapshot identity, with no global flush:

* every :class:`~repro.spin.dispatcher.EventDecl` rebuilds its handler
  snapshot tuple on install/uninstall (and on explicit
  ``Dispatcher.invalidate_event`` -- managers whose guards read live
  state, like the TCP diverted port set, call it when that state
  changes without an install);
* a plan is the pair ``(snapshot, fn)``: the event's handler snapshot
  the verdicts were recorded against, and the generated function that
  replays them.  It is valid exactly while ``snapshot is
  event._snapshot`` -- identity, not equality.  Because the plan's
  reference keeps the old tuple alive, a recycled ``id()`` can never
  alias, so a stale plan surviving outside the cache (an evicted entry
  still riding on a queued packet header) can never coincidentally
  validate the way a wrapped or reset counter could.

Correctness contract: a guard installed on a flow-routed event must be a
pure function of the flow key plus live state whose every change replaces
the event's snapshot.  Every guard the protocol managers construct
satisfies this by design (applications never supply raw guards to
transport events).  Packets the classifier cannot reduce to a flow key
-- truncated headers, IP fragments -- carry no flow entry and take the
linear path.

A recorded plan is served as a generated Python function
(``repro.spin.codegen``), so there are two rungs:

* default: plans and flowless scans run as generated functions;
* ``REPRO_FLOW_CACHE=0``: the reference oracle -- no plans, no generated
  code, every raise is the interpreted linear scan.

The equivalence tests, the chaos oracle and the bench twins run both and
assert identical delivery order, counters, and bit-identical simulated
time.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

__all__ = ["FlowCache", "FlowEntry", "flow_cache_enabled"]


def flow_cache_enabled() -> bool:
    """Whether the environment enables flow caching (default: yes)."""
    return os.environ.get("REPRO_FLOW_CACHE", "1") != "0"


class FlowEntry:
    """One cached flow: its key and the per-event compiled plans.

    ``plans`` maps an event to its plan, the pair ``(snapshot, fn)``.
    ``seen`` maps an event to the handler snapshot the flow last raised
    it at with no valid plan: a second cold raise at that same snapshot
    is what compiles the plan.

    The entry rides on ``m.pkthdr.flow`` from the link layer upward, so
    every event raise along the delivery path shares one classification.
    """

    __slots__ = ("key", "plans", "seen")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self.plans: Dict[object, Tuple[Tuple, Callable]] = {}
        self.seen: Dict[object, Tuple] = {}

    def __repr__(self) -> str:
        return "<FlowEntry %r (%d plans)>" % (self.key, len(self.plans))


class FlowCache:
    """Per-dispatcher cache mapping flow keys to compiled delivery paths.

    Bounded LRU: dict insertion order doubles as recency order (a touched
    entry is deleted and reinserted at the tail), and inserting into a
    full cache evicts exactly the least-recently-used entry.  Under flow
    churn beyond the capacity the cache degrades to per-flow recompiles
    -- never to a global flush, so established hot flows keep their
    compiled plans while one-shot flows cycle through the cold end.
    """

    #: bound on distinct cached flows when no ``capacity`` is given.
    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is None:
            capacity = self.DEFAULT_CAPACITY
        elif not isinstance(capacity, int) or capacity <= 0:
            raise ValueError(
                "capacity must be a positive int, not %r" % (capacity,))
        self.enabled = flow_cache_enabled()
        self.capacity = capacity
        self.entries: Dict[Tuple, FlowEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # generated-code counters (host-side observability only)
        self.compiled_plans = 0
        self.compiled_scans = 0

    def entry_for(self, key: Optional[Tuple]) -> Optional[FlowEntry]:
        """The (created-on-demand) entry for ``key``; None when disabled
        or the packet is unclassifiable."""
        if key is None or not self.enabled:
            return None
        entries = self.entries
        entry = entries.get(key)
        if entry is None:
            if len(entries) >= self.capacity:
                evicted = next(iter(entries))  # head == least recent
                del entries[evicted]
                self.evictions += 1
            entry = FlowEntry(key)
            entries[key] = entry
        else:
            # Move to the recency tail.
            del entries[key]
            entries[key] = entry
        return entry

    def register_metrics(self, registry) -> None:
        """Publish the cache counters on a metrics registry."""
        registry.source("spin.flowcache.enabled", lambda: int(self.enabled))
        registry.source("spin.flowcache.capacity", lambda: self.capacity)
        registry.source("spin.flowcache.entries", lambda: len(self.entries))
        registry.source("spin.flowcache.hits", lambda: self.hits)
        registry.source("spin.flowcache.misses", lambda: self.misses)
        registry.source("spin.flowcache.invalidations",
                        lambda: self.invalidations)
        registry.source("spin.flowcache.evictions", lambda: self.evictions)
        registry.source("spin.flowcache.compiled.plans",
                        lambda: self.compiled_plans)
        registry.source("spin.flowcache.compiled.scans",
                        lambda: self.compiled_scans)
        # Every hit runs its plan's generated function, so the replays
        # are the hits; the name stays because perfbench reads it.
        registry.source("spin.flowcache.compiled.replays", lambda: self.hits)

    def __repr__(self) -> str:
        return "<FlowCache %d entries hits=%d misses=%d inval=%d>" % (
            len(self.entries), self.hits, self.misses, self.invalidations)
