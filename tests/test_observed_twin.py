"""Watching changes nothing: every registry scenario under every
observer at once (``twins.Watchers``) against its unwatched run.

The metrics registry, a span tracer, an SLO tracker with the request
lifecycle the scenario reports to, the CPU profiler and a packet tracer
all attach to a freshly built bed.  The run must be the run nobody
watched: the ordered wire log (instants and CPU busy times included),
every host's CPU by category, every handle's statistics, every counter,
the fingerprint and the heap entries.  The observers own no metric of
the run's snapshot, so no counter is exempt.  And each observer saw the
run: the tracers recorded frames, the profiler consumed CPU time, and a
tracked lifecycle's requests were decomposed to their whole latency.
"""

import pytest

from repro.bench.workloads import WORKLOADS
from twins import LIFECYCLE, Watchers, observe, observed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_watching_changes_nothing(name):
    watchers = Watchers(LIFECYCLE.get(name, "tracked"))
    assert observe(WORKLOADS[name], watch=watchers) == observed(name)
    assert watchers.packets.records and watchers.spans.records
    assert watchers.profiler.consumed_us() > 0.0
    assert watchers.registry.names()
    if watchers.mode == "tracked":
        assert watchers.lifecycle.completed or not WORKLOADS[name].kinds
        for request in watchers.lifecycle.completed:
            assert sum(request.components.values()) == request.total_ns
