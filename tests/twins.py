"""The twin harness: a run against its twin, on every observable.

A *twin* is a context manager of patches that changes how the simulator
computes a run but must not change what the run does.  :func:`observe`
runs a registry record at its warm-up scale and returns everything a
run shows: the ordered log of frames staged and delivered (with the
instant and the host's CPU busy time at each), every host's charged CPU
by category and its interrupts, every dispatcher's per-handle
statistics, every counter, the fingerprint, and the heap entries.

Three twins:

* ``due_now`` patches ``Engine.due_now`` to True, so every elided
  zero-delay entry (an interrupt's bootstrap, a queued path's start) is
  pushed after all.  Only the heap entries may differ.
* ``scan`` patches :func:`reference_scan` -- the interpreted walk over a
  handler snapshot, the semantics ``repro.spin.codegen`` specializes --
  over ``repro.spin.dispatcher.compile_scan``, counted as a compile as
  ``compile_scan`` counts one.  Nothing may differ, heap entries
  included.
* ``relay_lane`` patches ``_Medium._send_on_lane`` with the wire-end
  relay the merged lane replaced: every frame on a lane (point-to-point,
  NIC to switch) pushes ``_lane_sent`` at its wire end, which books the
  frame and pushes the landing after propagation.  Only the heap entries
  may differ, by one ``_lane_sent`` run per frame on a clean lane.

The reference lives here, not in ``src/``: the product has one dispatch
path, and this is what it is checked against.
"""

import contextlib
import functools
from unittest import mock

from repro.bench.workloads import WORKLOADS, run_once
from repro.hw.cpu import MISMATCHED_END, OUTSIDE_PATH, ChargeError
from repro.hw.link import _Medium
from repro.obs.taps import Observer
from repro.sim import Engine

#: Heap-entry counts: the one thing the ``due_now`` twin may change.
ENTRY_METRICS = ("sim.engine.events_processed", "sim.engine.pending")


def reference_scan(dispatcher, event, snapshot, args) -> int:
    """The interpreted linear scan: the reference semantics.

    What the ``scan`` twin runs per raise, and the generated code's
    semantic template.  cpu.charge / begin / end are inlined below
    (exact bodies, exact order), as the generated code inlines them.
    """
    costs = dispatcher.host.costs
    cpu = dispatcher.host.cpu
    stack = cpu._stack
    times = cpu.category_times
    guard_cost = costs.guard_eval
    handler_cost = costs.dispatch_per_handler
    dispatcher.total_raises += 1
    matched = 0
    profile = cpu.profile
    if profile is not None:
        profile.push(event.name)
    try:
        for handle in snapshot:
            if not handle.installed:
                continue
            guard = handle.guard
            if guard is not None:
                if not stack:
                    raise ChargeError(OUTSIDE_PATH)
                stack[-1] += guard_cost
                times["dispatch"] += guard_cost
                try:
                    if not guard(*args):
                        handle.guard_rejections += 1
                        continue
                except Exception as exc:  # guard failure: no match
                    handle.failures += 1
                    dispatcher.total_failures += 1
                    handle.last_error = exc
                    continue
            matched += 1
            if not stack:
                raise ChargeError(OUTSIDE_PATH)
            stack[-1] += handler_cost
            times["dispatch"] += handler_cost
            if handle.mode == "thread":
                dispatcher._delegate_to_thread(handle, args)
                continue
            handle.invocations += 1
            dispatcher.total_invocations += 1
            stack.append(0.0)
            marker = len(stack)
            try:
                handle.handler(*args)
            except Exception as exc:  # containment: may not crash kernel
                handle.failures += 1
                dispatcher.total_failures += 1
                handle.last_error = exc
            finally:
                if marker != len(stack):
                    raise ChargeError(MISMATCHED_END % (marker, len(stack)))
                spent = stack.pop()
            limit = handle.time_limit
            if limit is not None and spent > limit:
                # Premature termination: only the allotment is consumed
                # (paper sec. 3.3).
                handle.terminations += 1
                dispatcher.total_terminations += 1
                stack[-1] += limit
            else:
                stack[-1] += spent
    finally:
        if profile is not None:
            profile.pop()
    return matched


def _compile_reference(dispatcher, event, snapshot):
    """``compile_scan``'s stand-in: the reference over the snapshot."""
    dispatcher.compiled_scans += 1
    return functools.partial(reference_scan, dispatcher, event, snapshot)


def scan():
    """The ``scan`` twin: every raise walks the reference scan."""
    return mock.patch("repro.spin.dispatcher.compile_scan",
                      _compile_reference)


def due_now():
    """The ``due_now`` twin: every elidable entry is pushed."""
    return mock.patch.object(Engine, "due_now", lambda self: True)


def relay_lane(relays=None):
    """The ``relay_lane`` twin: each lane frame lands through a wire-end
    ``_lane_sent`` entry, as ``_RelayLane`` in ``test_engine_diet.py``
    does.  ``relays``, a list, gains the frame of each ``_lane_sent``
    entry run for a clean lane: the entries the merged lane saves (a
    frame still on the wire when the run stops has one pending in
    either run)."""
    lane_sent = _Medium._lane_sent

    def send_on_lane(self, sink, frame, done):
        self.engine.call_after(self._wire_time_us(frame.wire_bytes),
                               self._lane_sent, (sink, frame, done))

    def counted_lane_sent(self, flight):
        if relays is not None and self._impairments is None:
            relays.append(flight[1])
        lane_sent(self, flight)
    return mock.patch.multiple(_Medium, _send_on_lane=send_on_lane,
                               _lane_sent=counted_lane_sent)


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


def handle_stats(dispatcher):
    """Each event's installed handles in order, with their statistics."""
    return {name: [(handle.label, handle.invocations,
                    handle.guard_rejections, handle.failures,
                    handle.terminations) for handle in event.handlers]
            for name, event in dispatcher.events.items()}


def observe(record, twin=contextlib.nullcontext):
    """One run of ``record`` at its warm-up scale under ``twin()``:
    ``(wire log, hosts, dispatchers, counters, fingerprint, entries)``.

    ``hosts`` is each host's interrupts, CPU busy time and charged CPU
    by category; ``dispatchers`` each dispatching host's
    :func:`handle_stats`; ``counters`` every metric outside
    :data:`ENTRY_METRICS`; ``entries`` the heap entries the run popped
    and left pending."""
    seen = {}

    def instrument(bed):
        seen["bed"] = bed
        seen["wire"] = _WireLog(bed.engine).attach(nics=bed.nics)
    with twin():
        result = run_once(record, record.warmup, instrument=instrument)
    hosts = seen["bed"].hosts
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    return (seen["wire"].log,
            [(host.name, host.interrupts_handled, host.cpu.busy_time,
              sorted(host.cpu.category_times.items())) for host in hosts],
            {host.name: handle_stats(host.dispatcher) for host in hosts
             if getattr(host, "dispatcher", None) is not None},
            {name: value for name, value in metrics.items()
             if name not in ENTRY_METRICS},
            result["fingerprint"],
            (result["events"], [metrics.get(name) for name in ENTRY_METRICS]))


@functools.lru_cache(maxsize=None)
def observed(name):
    """:func:`observe` of the registry record ``name`` with no twin: a
    run is deterministic, so every twin compares with this one copy."""
    return observe(WORKLOADS[name])
