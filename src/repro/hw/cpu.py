"""Simulated CPU: busy-time accounting, the run queue and kernel paths.

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
:class:`KernelPath` is the one place that runs the pattern, in two
frames: :meth:`KernelPath.start` takes the CPU and runs ``fn`` under a
fresh accumulator, and the hold's heap entry ends the path.  A process
waits on a path through ``Host.kernel_path`` (``repro.hw.host``).  The
accumulator stack is empty whenever a path starts -- starting one inside
an open accumulator is a :class:`ChargeError` -- so the path's own
accumulator is the only one left when ``fn`` returns; a path whose
``fn`` leaves another open, or pops its own, holds for whatever it left
on the stack, empties it, and fails with :class:`ChargeError`.

The processor is a run queue: :attr:`CPU.held` (the path holding the
CPU, or False) and one FIFO of waiting kernel paths per priority level.
Two levels model interrupt- versus thread-level execution: interrupt-
level paths are served before any queued thread-level path (non-
preemptive: a running slice finishes first, which is accurate enough at
the microsecond slice sizes used here).  A path takes a free CPU with a
flag test, or appends itself to its level's FIFO, with no event; the
end of a hold hands the CPU to the next path.  This module is the one
that knows the run queue's format.

Accounting: :attr:`CPU.busy_time` accumulates every consumed microsecond,
and :attr:`CPU.category_times` decomposes charges by category (``driver``,
``protocol``, ``copy``, ``app`` ...) for the utilization breakdowns in
Figure 6 and section 5.1 of the paper.  It is a :class:`CategoryTimes`,
which reads an uncharged category as ``0.0``, so every site that inlines
a charge books it with one ``times[category] += amount``; such a site
raises ``ChargeError(OUTSIDE_PATH)`` when no accumulator is open, and
the texts of both discipline errors are defined here only.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Tuple

from ..sim import Engine
from ..sim.engine import _PENDING, _PROCESSED, Event
from .alpha import ALPHA_21064, CostTable

if TYPE_CHECKING:
    from .host import Host

__all__ = ["CPU", "CategoryTimes", "INTERRUPT_PRIORITY", "KernelPath",
           "THREAD_PRIORITY", "ChargeError", "MISMATCHED_END", "OUTSIDE_PATH"]

INTERRUPT_PRIORITY = 0
THREAD_PRIORITY = 1

#: The discipline errors' texts, for every site that inlines a charge or
#: an end: a charge with no accumulator open, and an end whose marker is
#: not the innermost accumulator's (formatted with marker and depth).
OUTSIDE_PATH = ("cpu.charge() outside begin()/end(); protocol code must run "
                "under a kernel execution context")
MISMATCHED_END = "mismatched cpu.end(): marker %d but stack depth %d"


class ChargeError(RuntimeError):
    """Raised when the begin/charge/end discipline is violated."""


class CategoryTimes(dict):
    """Charged microseconds by category; an uncharged category reads 0.0.

    A read of a missing key inserts nothing, so a category appears only
    once it is charged, and every charge site is one ``times[k] += a``
    (``0.0 + a`` is bitwise ``a`` for the non-negative charges a
    :class:`CostTable` holds).
    """

    __slots__ = ()

    def __missing__(self, key: str) -> float:
        return 0.0


class CPU:
    """One processor: a run queue plus cost accounting."""

    def __init__(self, engine: Engine, costs: CostTable = ALPHA_21064,
                 name: str = "cpu"):
        self.engine = engine
        self.costs = costs
        self.name = name
        #: The kernel path holding the processor (or handed it and not
        #: yet run); False while it is free.
        self.held: Any = False
        #: The waiting kernel paths: one FIFO per priority level, indexed
        #: by INTERRUPT_PRIORITY and THREAD_PRIORITY.
        self.run_queue: Tuple[Deque["KernelPath"], Deque["KernelPath"]] = (
            deque(), deque())
        #: Kernel paths that found the processor busy and queued.
        self.paths_queued = 0
        self.busy_time: float = 0.0
        self.category_times: Dict[str, float] = CategoryTimes()
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
        try:
            self._stack[-1] += microseconds
        except IndexError:
            raise ChargeError(OUTSIDE_PATH) from None
        self.category_times[category] += microseconds

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

    def end(self, marker: int) -> float:
        """Pop the accumulator opened by the matching :meth:`begin`."""
        if marker != len(self._stack):
            raise ChargeError(MISMATCHED_END % (marker, len(self._stack)))
        return self._stack.pop()

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


class KernelPath(Event):
    """Plain kernel code ``fn(*args)`` run on the CPU, as one continuation.

    Two frames.  :meth:`start` takes the CPU (or joins its run queue)
    and runs ``fn`` under a fresh charge accumulator; :meth:`_held`, the
    entry that ends the hold for what ``fn`` charged, hands the CPU to
    the next path and flushes the deferred hardware actions, so wire
    activity never precedes the CPU work that caused it.  The path is an
    event whose completion runs its callbacks in that same entry: a
    waiting process resumes right there.  If ``fn`` raises, the path
    still holds the CPU for what it charged and flushes what it
    deferred; then the CPU is handed over and a waiter gets the
    exception.  With no waiter it is a kernel bug (the dispatcher
    contains extension failures) and leaves the engine's run loop.
    """

    __slots__ = ("host", "fn", "args", "priority", "name",
                 "_profile", "_amount", "_deferred")

    def __init__(self, host: "Host", fn: Callable, args: Tuple = (),
                 priority: int = THREAD_PRIORITY, name: str = "kpath"):
        # Event.__init__, inlined: one path per interrupt, timer and call.
        self.engine = host.engine
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.host = host
        self.fn = fn
        self.args = args
        self.priority = priority
        self.name = name

    def start(self) -> None:
        """Take the CPU and run ``fn`` now if it is free, else join the
        FIFO of this path's level.  A path the end of a hold handed the
        CPU to (``cpu.held is self``) runs at once."""
        cpu = self.host.cpu
        held = cpu.held
        if held is not self:
            if cpu._stack:
                raise ChargeError(
                    "kernel path %s started inside an open accumulator"
                    % self.name)
            if held:
                cpu.run_queue[self.priority].append(self)
                cpu.paths_queued += 1
                return
            cpu.held = self
        host = self.host
        stack = cpu._stack
        fn = self.fn
        # Off-by-default observability hook: one attribute load + None
        # check per path when no profiler/tracer is attached.  Kept for
        # the hold, which books to the profile the path ran under.
        self._profile = profile = cpu.profile
        if profile is not None:
            profile.push(getattr(fn, "__name__", "kernel_path"))
        # cpu.begin()/end() inlined.  The stack is empty when a path
        # starts, so exactly one accumulator is left when fn returns.
        stack.append(0.0)
        try:
            self._value = fn(*self.args)
        except Exception as exc:
            self._exception = exc
        # The accumulator comes off before the profile frame: an
        # observer that raises fails an ordinary path.
        try:
            amount = stack.pop()
        except IndexError:
            amount = None   # fn popped the path's own accumulator
        if stack or amount is None:
            # A broken discipline: hold for everything fn left on the
            # stack, and leave it empty for the next path.
            amount = sum(stack, amount or 0.0)
            stack.clear()
            error = ChargeError(
                "kernel path %s left the accumulator stack unbalanced"
                % self.name)
            error.__context__ = self._exception
            self._exception = error
        # Snapshot-and-reset, without allocating a fresh list when
        # nothing was deferred.  The empty snapshot must not alias the
        # live list: actions deferred during the hold belong to the
        # *next* flush.
        deferred = host._deferred
        if deferred:
            host._deferred = []
        else:
            deferred = ()
        self._deferred = deferred
        if profile is not None:
            try:
                profile.pop()
            except Exception as exc:
                self._exception = exc
        self._amount = amount
        if amount > 0:
            self.engine.call_after(amount, KernelPath._held, self)
        else:
            self._held()

    def _held(self) -> None:
        """End the path: consume the hold, hand the CPU over, flush the
        deferred actions, complete.

        The hold's entry calls it; a path that charged nothing calls it
        from :meth:`start`, inside whatever entry started the path.  The
        next path in the run queue gets a zero-delay entry, pushed
        before the flush, when another entry is due at this instant,
        when this path charged nothing (the entry that started it goes
        on after it) or when it failed (with no waiter the exception
        leaves this entry, and must not strand the next path).
        Otherwise that entry would have been the next one popped --
        everything the flush and the completion push comes after it --
        so the next path runs at the end of this entry instead, in the
        same order, one heap entry cheaper."""
        amount = self._amount
        cpu = self.host.cpu
        cpu.busy_time += amount
        profile = self._profile
        if profile is not None and amount:
            profile.consumed(amount)
        interrupts, threads = cpu.run_queue
        if interrupts:
            successor = interrupts.popleft()
        elif threads:
            successor = threads.popleft()
        else:
            successor = False
        cpu.held = successor
        if successor and (not amount or self._exception is not None
                          or self.engine.due_now()):
            self.engine.call_after(0.0, KernelPath.start, successor)
            successor = False
        for action in self._deferred:
            action()
        self._state = _PROCESSED
        for callback in self.callbacks:
            callback(self)
        if successor:
            successor.start()
        elif self._exception is not None and not self.callbacks:
            raise self._exception

    def __repr__(self) -> str:
        return "<KernelPath %s>" % self.name
