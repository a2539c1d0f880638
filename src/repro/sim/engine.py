"""Discrete-event simulation engine.

This module is the foundation of the whole reproduction.  Everything that
"takes time" in the simulated testbed -- CPU work, wire transmission,
interrupt latency, context switches -- is expressed as entries on a single
global clock owned by an :class:`Engine`.

* A heap entry is ``(time, sequence, fn, arg)``; processing it calls
  ``fn(arg)``.  Hardware (CPU holds, wire delays, kernel timers) pushes
  plain callbacks with :meth:`Engine.call_after` / :meth:`Engine.call_at`.
* An :class:`Event` is a one-shot occurrence that callbacks can be attached
  to.  It either *succeeds* with a value or *fails* with an exception.
* A :class:`Process` wraps a generator, for what really blocks (an
  application, a socket call).  The generator ``yield``\\ s events; when a
  yielded event fires the generator is resumed with the event's value (or
  the event's exception is thrown into it).  A process is itself an event
  that fires when the generator returns.
* The :class:`Engine` owns the clock and the pending-entry heap -- the
  only place pending work is kept -- and runs entries in (time, sequence)
  order, which makes runs fully deterministic.

Simulated time is a float in **microseconds**; the paper reports latencies
in microseconds and this keeps every number in the code directly comparable
with the numbers in the paper.
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, List, Optional, Tuple

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, not yet processed
_PROCESSED = 2


class SimulationError(Exception):
    """Base class for errors raised by the simulation machinery itself."""


class _Bootstrap:
    """The null trigger a new Process is first resumed with."""

    __slots__ = ()
    _value = None
    _exception = None


_BOOTSTRAP = _Bootstrap()


def _fire(event: "Event") -> None:
    """The ``fn`` of an event's heap entry: run its callbacks once."""
    event._state = _PROCESSED
    callbacks = event.callbacks
    event.callbacks = []
    for callback in callbacks:
        callback(event)


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    schedules them on the engine's heap; when the engine processes them the
    registered callbacks run and any waiting processes resume.
    """

    __slots__ = ("engine", "callbacks", "_state", "_value", "_exception")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- introspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not with an exception)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire successfully, now."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        self._state = _TRIGGERED
        self._value = value
        # Engine.call_after(0.0, ...), inlined (succeed is on the
        # per-packet hot path).
        engine = self.engine
        engine._sequence += 1
        heappush(engine._heap, (engine.now, engine._sequence, _fire, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire with ``exception``, now."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._exception = exception
        self.engine.call_after(0.0, _fire, self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("timeout delay must be non-negative, got %r" % delay)
        # Event.__init__ and Engine.call_after, inlined: a process that
        # sleeps builds one of these per sleep.
        self.engine = engine
        self.callbacks = []
        self._state = _TRIGGERED
        self._value = value
        self._exception = None
        engine._sequence += 1
        heappush(engine._heap,
                 (engine.now + delay, engine._sequence, _fire, self))


class Process(Event):
    """A simulated activity driven by a generator.

    The generator yields :class:`Event` objects.  The process resumes when
    the yielded event fires: with the event's value on success, or with the
    event's exception thrown into the generator on failure.  The process --
    itself an event -- succeeds with the generator's return value, or fails
    with any exception that escapes the generator, which waits there for
    whoever yields the process.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        # Event.__init__, inlined.
        self.engine = engine
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exception = None
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator as soon as the engine runs.
        engine.call_after(0.0, self._resume, _BOOTSTRAP)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        try:
            if trigger._exception is not None:
                target = self._generator.throw(trigger._exception)
            else:
                target = self._generator.send(trigger._value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish(None, exc)
            return
        # Read _state directly: yielding a non-Event surfaces here as an
        # AttributeError, converted to the historical SimulationError.
        try:
            state = target._state
        except AttributeError:
            raise SimulationError(
                "process %r yielded %r; processes must yield Event objects"
                % (self.name, target)
            )
        if state == _PROCESSED:
            # The event already fired; resume with it at the current time.
            self.engine.call_after(0.0, self._resume, target)
        else:
            target.callbacks.append(self._resume)

    def _finish(self, value: Any, exception: Optional[BaseException]) -> None:
        """The generator is done.  Only a waiter justifies a completion
        event; with none attached the process is simply *processed*, and a
        later ``yield process`` resumes through the already-fired path."""
        self._value = value
        self._exception = exception
        if self.callbacks:
            self._state = _TRIGGERED
            self.engine.call_after(0.0, _fire, self)
        else:
            self._state = _PROCESSED


class Engine:
    """The simulation engine: clock, pending-entry heap, event factories.

    Heap entries are ``(time, sequence, fn, arg)``.  The sequence number,
    claimed when an entry is pushed, makes simultaneous entries run in
    FIFO order, which makes every run deterministic.  Everything pending
    is on the heap -- event firings, process resumptions, hardware
    callbacks and kernel timers alike.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0
        #: Cancelled ``hw.host.Timer`` entries still on the heap.  They pop
        #: as no-op entries; counting them keeps a dead deadline from
        #: holding :meth:`run` open or showing in :meth:`pending_count`.
        self.cancelled_timers = 0
        #: ``hw.host.Timer`` instances ever armed.
        self.timers_armed = 0

    @property
    def events_processed(self) -> int:
        """Heap entries popped so far.  Every push claims a sequence
        number and nothing leaves the heap but a pop, so this is pushes
        minus pending entries: the run loop counts nothing."""
        return self._sequence - len(self._heap)

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    #: The name the perfbench workloads still call; it is :meth:`timeout`.
    pooled_timeout = timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    # -- scheduling -------------------------------------------------------

    def call_after(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` microseconds from now.

        The hardware's way to wait: one heap entry, no event object, no
        process.  ``delay`` must be non-negative.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % delay)
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Run ``fn(arg)`` at absolute time ``when``; exact.

        The timestamp is pushed on the heap verbatim -- no ``now + delay``
        float round trip -- so a departure, a table update or a summed
        landing fires at the *bit-identical* instant its schedule
        computed.  ``when`` must not lie in the past."""
        if when < self.now:
            raise SimulationError(
                "call_at(%r) is in the past; clock is at %r" % (when, self.now))
        self._sequence += 1
        heappush(self._heap, (when, self._sequence, fn, arg))

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next entry, advancing the clock: exactly one
        iteration of the loop :meth:`run` and :meth:`run_process` run.

        An exception ``fn`` raises leaves here: hardware callbacks carry
        no process to keep a failure in.
        """
        try:
            self.now, _seq, fn, arg = heappop(self._heap)
        except IndexError:
            raise SimulationError(
                "step() called with no pending events") from None
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing live is pending or the clock passes ``until``.

        Without ``until`` the clock stops at the last live entry: cancelled
        timers left on the heap are not popped.  When ``until`` is given
        the clock is left exactly at ``until`` even if nothing fires at
        that instant, mirroring the behaviour expected by utilization
        sampling.
        """
        # The loops pop and call entries themselves (one step() each,
        # without the method call per entry).
        heap = self._heap
        if until is None:
            while len(heap) > self.cancelled_timers:
                self.now, _seq, fn, arg = heappop(heap)
                fn(arg)
            return
        if until < self.now:
            raise ValueError("cannot run until %r; clock is already at %r" % (until, self.now))
        while heap and heap[0][0] <= until:
            self.now, _seq, fn, arg = heappop(heap)
            fn(arg)
        self.now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator`` and run until it finishes.

        Returns the process return value; re-raises any exception that
        escaped the generator.  Other concurrently scheduled events keep
        running while the process is alive.
        """
        process = self.process(generator, name=name)
        heap = self._heap
        while process._state == _PENDING:
            if not heap:
                raise SimulationError(
                    "deadlock: process %r is waiting but no events are pending"
                    % process.name
                )
            self.now, _seq, fn, arg = heappop(heap)
            fn(arg)
        return process.value

    def due_now(self) -> bool:
        """True when an entry is pending at the current instant: the next
        :meth:`step` would run it without advancing the clock.  Cancelled
        timers count, as :meth:`step` pops them too."""
        heap = self._heap
        return heap[0][0] == self.now if heap else False

    def pending_count(self) -> int:
        """Live pending entries: heap entries minus cancelled timers."""
        return len(self._heap) - self.cancelled_timers

    def register_metrics(self, registry) -> None:
        """Publish the engine's counters on a metrics registry."""
        registry.source("sim.engine.events_processed",
                        lambda: self.events_processed)
        registry.source("sim.engine.pending", self.pending_count)
        registry.source("sim.engine.now_us", lambda: self.now)
        # Timers ever armed.  The name predates the heap-only engine;
        # perfbench reads it for ``sim.timers_per_op``.
        registry.source("sim.wheel.scheduled", lambda: self.timers_armed)
