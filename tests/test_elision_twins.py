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

``Engine.due_now()`` is the one predicate both consult.  The ``due_now``
twin (``twins.py``) takes the long way by patching it to return True --
every bootstrap and every hand-over is then its own entry -- and must
see exactly what the run with the elisions saw: the ordered log of
frames staged and delivered (with the instant and the sending or
receiving host's CPU busy time at each), every host's charged CPU by
category, every handle's statistics, and every counter.  Only the
heap-entry counts may differ.

Two mutants of the elided paths are red here: ``_held`` starting its
successor before the deferred flush (``many_flows``),
and an interrupt whose in-entry-or-bootstrap choice is made at ring
admission instead of at the interrupt, so that it starts in its entry
while another entry is due (``fabric_fat_tree``).
"""

import pytest

from repro.bench.workloads import WORKLOADS
from twins import due_now, observe, observed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_long_way_sees_the_same_run(name):
    record = WORKLOADS[name]
    *elided, (elided_entries, _pending) = observed(name)
    *twin, (twin_entries, _pending) = observe(record, due_now)
    wire, hosts = elided[:2]
    assert wire, "the scenario moved no frame"
    assert twin == elided
    # The twin really took the long way: every interrupt path, at least,
    # paid its bootstrap entry.
    interrupts = sum(handled for _name, handled, _busy, _cpu in hosts)
    assert twin_entries >= elided_entries + interrupts > elided_entries
