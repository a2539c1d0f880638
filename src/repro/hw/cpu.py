"""Simulated CPU with busy-time accounting.

Execution discipline
--------------------

Protocol and application code in the reproduction runs as *plain Python*
that charges CPU costs to an accumulator; the surrounding kernel path
then *consumes* the accumulated charge, which holds the processor for
that much simulated time.  The pattern is::

    marker = cpu.begin()
    result = plain_protocol_code(...)   # calls cpu.charge(...) freely
    amount = cpu.end(marker)
    # hold the CPU for ``amount`` microseconds

Plain segments never yield, so begin/charge/end is atomic with respect to
other simulation processes and accumulators cannot cross-contaminate.
``KernelPath`` (``repro.hw.host``) is the one place that runs the
pattern: acquire, run, hold for the charge, release -- as a chain of heap
callbacks, which a process waits on through ``Host.kernel_path``.

The processor is a run queue: a :attr:`CPU.held` flag and one FIFO of
waiting kernel paths per priority level.  Two levels model interrupt-
versus thread-level execution: interrupt-level paths are served before
any queued thread-level path (non-preemptive: a running slice finishes
first, which is accurate enough at the microsecond slice sizes used
here).  :meth:`CPU.acquire` takes a free CPU with a flag test, or appends
a path that finds it busy to its level's FIFO, with no event;
:meth:`CPU.release` hands the CPU to the next path.  This module is the
one that knows the run queue's format.

Accounting: :attr:`CPU.busy_time` accumulates every consumed microsecond,
and :attr:`CPU.category_times` decomposes charges by category (``driver``,
``protocol``, ``copy``, ``app`` ...) for the utilization breakdowns in
Figure 6 and section 5.1 of the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim import Engine
from .alpha import ALPHA_21064, CostTable

__all__ = ["CPU", "INTERRUPT_PRIORITY", "THREAD_PRIORITY", "ChargeError"]

INTERRUPT_PRIORITY = 0
THREAD_PRIORITY = 1


class ChargeError(RuntimeError):
    """Raised when the begin/charge/end discipline is violated."""


class CPU:
    """One processor: a run queue plus cost accounting."""

    def __init__(self, engine: Engine, costs: CostTable = ALPHA_21064,
                 name: str = "cpu"):
        self.engine = engine
        self.costs = costs
        self.name = name
        #: True while a kernel path holds the processor (or has been
        #: handed it and not yet run).
        self.held = False
        #: The waiting kernel paths: one FIFO per priority level, indexed
        #: by INTERRUPT_PRIORITY and THREAD_PRIORITY.
        self.run_queue: Tuple[Deque[Any], Deque[Any]] = (deque(), deque())
        #: Kernel paths that found the processor busy and queued.
        self.paths_queued = 0
        self.busy_time: float = 0.0
        self.category_times: Dict[str, float] = {}
        self._stack: List[float] = []
        # Charges issued with no execution context open (see try_charge):
        # counted so skipped work is visible instead of silently dropped.
        self.uncontexted_charges = 0
        self.uncontexted_charge_us: float = 0.0
        #: optional repro.obs.taps.CpuHook; None (the default) keeps
        #: every hot path on its uninstrumented shape.
        self.profile = None

    # -- the charge accumulator ------------------------------------------

    def begin(self) -> int:
        """Push a fresh accumulator; returns a marker for :meth:`end`."""
        self._stack.append(0.0)
        return len(self._stack)

    def charge(self, microseconds: float, category: str = "kernel") -> None:
        """Charge CPU work to the innermost open accumulator."""
        if microseconds < 0:
            raise ValueError("cannot charge negative time: %r" % microseconds)
        stack = self._stack
        if not stack:
            raise ChargeError(
                "cpu.charge() outside begin()/end(); protocol code must run "
                "under a kernel execution context")
        stack[-1] += microseconds
        times = self.category_times
        try:
            times[category] += microseconds
        except KeyError:
            times[category] = microseconds

    def try_charge(self, microseconds: float, category: str = "kernel") -> bool:
        """Charge when an execution context is open; safe no-op otherwise.

        Control-plane operations (install/uninstall, link/unlink) can be
        invoked both from inside a kernel path and from test or setup code
        that runs outside any accumulator.  Call sites charge
        *unconditionally* through this method; when no context is open
        the charge is recorded on :attr:`uncontexted_charges` /
        :attr:`uncontexted_charge_us` rather than silently skipped.
        Returns True when the charge landed in an accumulator.
        """
        if microseconds < 0:
            raise ValueError("cannot charge negative time: %r" % microseconds)
        if self._stack:
            self.charge(microseconds, category)
            return True
        self.uncontexted_charges += 1
        self.uncontexted_charge_us += microseconds
        return False

    def recharge(self, microseconds: float) -> None:
        """Move already-categorized time into the innermost accumulator.

        Used when a sub-accumulator was popped (e.g. to meter one handler's
        cost against its time limit) and its remainder must flow into the
        enclosing accumulator without double-counting category times.
        """
        if microseconds < 0:
            raise ValueError("cannot recharge negative time: %r" % microseconds)
        if not self._stack:
            raise ChargeError("cpu.recharge() outside begin()/end()")
        self._stack[-1] += microseconds

    def end(self, marker: int) -> float:
        """Pop the accumulator opened by the matching :meth:`begin`."""
        if marker != len(self._stack):
            raise ChargeError(
                "mismatched cpu.end(): marker %d but stack depth %d"
                % (marker, len(self._stack)))
        return self._stack.pop()

    # -- the run queue --------------------------------------------------------

    def acquire(self, path: Any) -> bool:
        """Take the processor for ``path`` if it is free (True); else
        append ``path`` to the FIFO of its priority level (False), for a
        later :meth:`release` to hand the processor to."""
        if self.held:
            self.run_queue[path.priority].append(path)
            self.paths_queued += 1
            return False
        self.held = True
        return True

    def release(self) -> Optional[Any]:
        """Hand the processor to the next waiting path, interrupt level
        first, and return it; with nobody waiting, free it and return
        None.  The caller runs the returned path, which holds the CPU."""
        interrupts, threads = self.run_queue
        if interrupts:
            return interrupts.popleft()
        if threads:
            return threads.popleft()
        self.held = False
        return None

    # -- measurement ---------------------------------------------------------

    def utilization_since(self, busy_mark: float, time_mark: float) -> float:
        """Fraction of CPU busy between a (busy, time) sample and now."""
        elapsed = self.engine.now - time_mark
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.busy_time - busy_mark) / elapsed)

    def sample(self) -> Tuple[float, float]:
        """A (busy_time, now) sample for :meth:`utilization_since`."""
        return self.busy_time, self.engine.now

    def register_metrics(self, registry) -> None:
        """Publish the accounting counters on a metrics registry."""
        registry.source("hw.cpu.busy_us", lambda: self.busy_time)
        registry.source("hw.cpu.charged_us",
                        lambda: sum(self.category_times.values()))
        registry.source("hw.cpu.uncontexted_charges",
                        lambda: self.uncontexted_charges)
        registry.source("hw.cpu.uncontexted_charge_us",
                        lambda: self.uncontexted_charge_us)
        registry.source("hw.cpu.paths_queued", lambda: self.paths_queued)
