"""The merged clean-lane landing against its wire-end relay twin, on
every registry scenario.

A frame on a clean lane (a point-to-point wire, a NIC's uplink to a
switch) is one heap entry: ``_Medium._send_on_lane`` pushes its landing,
wire time plus propagation, when the frame starts.  The relay it
replaced pushed ``_lane_sent`` at the wire end, which booked the frame
and pushed the landing after propagation.  The ``relay_lane`` twin
(``twins.py``) puts that relay back, and must see exactly what the
merged run saw: the ordered wire log (instants and CPU busy times), CPU
by category, handle statistics, counters and fingerprint.  Only the heap
entries may differ, by one ``_lane_sent`` run per clean lane frame.

A landing pushed one wire time early (propagation only) is red here.
"""

import pytest

from repro.bench.workloads import WORKLOADS
from repro.hw.link import _Medium
from twins import observe, observed, relay_lane


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_wire_end_relay_sees_the_same_run(name):
    record = WORKLOADS[name]
    *merged, (merged_events, (merged_popped, merged_pending)) = \
        observed(name)
    relays = []
    *twin, (twin_events, (twin_popped, twin_pending)) = observe(
        record, lambda: relay_lane(relays))
    assert merged[0], "the scenario moved no frame"
    assert twin == merged
    assert twin_pending == merged_pending
    assert twin_events == twin_popped == merged_popped + len(relays)
    assert merged_events == merged_popped


def _early_landing(self, sink, frame, done):
    """The merged landing, one wire time early."""
    self.frames_carried += 1
    self.bytes_carried += frame.wire_bytes
    self.engine.call_after(self.propagation_us, self._deliver,
                           (sink, frame, done))


def test_a_landing_one_wire_time_early_is_seen(monkeypatch):
    """The twin has teeth: on the fat tree, every hop of which is a
    lane, an early landing moves the wire log."""
    name = "fabric_fat_tree"
    twin = observe(WORKLOADS[name], relay_lane)
    assert twin[:5] == observed(name)[:5]
    monkeypatch.setattr(_Medium, "_send_on_lane", _early_landing)
    assert observe(WORKLOADS[name])[0] != twin[0]
