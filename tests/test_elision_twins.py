"""Every ``due_now``-gated elision against its slow-path twin, on every
registry scenario.

Two elisions save a zero-delay heap entry when nothing else is due at
the instant they would push it, claiming "the same order, one entry
cheaper":

* ``Host.frame_arrived`` starts the interrupt's kernel path inside the
  interrupt's own entry instead of pushing its bootstrap;
* ``KernelPath._held`` runs the next queued path at the end of the hold
  that freed the CPU (after the deferred flush and the completion)
  instead of pushing its start.

``Engine.due_now()`` is the one predicate both consult.  The twin takes
the long way by patching it to return True -- every bootstrap and every
hand-over is then its own entry -- and must see exactly what the run
with the elisions saw: the ordered log of frames staged and delivered
(with the instant and the sending or receiving host's CPU busy time at
each), every host's charged CPU by category, and every counter.  Only
the heap-entry counts may differ.

Two mutants of the elided paths are red here: ``_held`` starting its
successor before the deferred flush (``many_flows``, ``mega_flows``),
and an interrupt whose in-entry-or-bootstrap choice is made at ring
admission instead of at the interrupt, so that it starts in its entry
while another entry is due (``fabric_fat_tree``).
"""

import pytest

from repro.bench.workloads import WORKLOADS, run_once
from repro.obs.taps import Observer
from repro.sim import Engine

#: Heap-entry counts: the one thing an elision is allowed to change.
_ENTRY_METRICS = ("sim.engine.events_processed", "sim.engine.pending")


class _WireLog(Observer):
    """Every frame a NIC stages or is handed, in order: the instant, the
    NIC, the bytes, the filter verdict, and the host's CPU busy time."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []

    def on_tx(self, nic, data):
        self.log.append((self.engine.now, "tx", nic.name, bytes(data),
                         nic.host.cpu.busy_time))

    def on_rx(self, nic, frame, accepted):
        self.log.append((self.engine.now, "rx", nic.name, frame.data,
                         accepted, nic.host.cpu.busy_time))


def _observe(record):
    """One run of ``record`` at its warm-up scale: ``(wire log, per-host
    CPU and interrupts, counters, fingerprint, heap entries)``."""
    seen = {}

    def instrument(bed):
        seen["bed"] = bed
        seen["wire"] = _WireLog(bed.engine).attach(nics=bed.nics)
    result = run_once(record, record.warmup, instrument=instrument)
    hosts = [(host.name, host.interrupts_handled, host.cpu.busy_time,
              sorted(host.cpu.category_times.items()))
             for host in seen["bed"].hosts]
    counters = {name: row["value"] for name, row in result["metrics"].items()
                if name not in _ENTRY_METRICS}
    return (seen["wire"].log, hosts, counters, result["fingerprint"],
            result["events"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_long_way_sees_the_same_run(name, monkeypatch):
    record = WORKLOADS[name]
    *elided, elided_entries = _observe(record)
    monkeypatch.setattr(Engine, "due_now", lambda self: True)
    *twin, twin_entries = _observe(record)
    wire, hosts, counters, fingerprint = elided
    assert wire, "the scenario moved no frame"
    assert twin[0] == wire
    assert twin[1] == hosts
    assert twin[2] == counters
    assert twin[3] == fingerprint
    # The twin really took the long way: every interrupt path, at least,
    # paid its bootstrap entry.
    interrupts = sum(handled for _name, handled, _busy, _cpu in hosts)
    assert twin_entries >= elided_entries + interrupts > elided_entries
