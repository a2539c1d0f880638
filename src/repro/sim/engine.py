"""Discrete-event simulation engine.

This module is the foundation of the whole reproduction.  Everything that
"takes time" in the simulated testbed -- CPU work, wire transmission,
interrupt latency, context switches -- is expressed as events on a single
global clock owned by an :class:`Engine`.

The design is deliberately close to the classic process-interaction style
(as popularised by SimPy), but implemented from scratch on the standard
library:

* An :class:`Event` is a one-shot occurrence that callbacks can be attached
  to.  It either *succeeds* with a value or *fails* with an exception.
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s events;
  when a yielded event fires the generator is resumed with the event's
  value (or the event's exception is thrown into it).  A process is itself
  an event that fires when the generator returns.
* The :class:`Engine` owns the clock and the pending-event heap -- the
  only place pending work is kept -- and runs events in (time, sequence)
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
    """The null trigger handed to a Process started with ``immediate``."""

    __slots__ = ()
    _value = None
    _exception = None


_BOOTSTRAP = _Bootstrap()


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

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        self._state = _TRIGGERED
        self._value = value
        # Engine._enqueue, inlined (succeed is on the per-packet hot path).
        engine = self.engine
        engine._sequence += 1
        heappush(engine._heap, (engine.now + delay, engine._sequence, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with ``exception``."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._exception = exception
        self.engine._enqueue(delay, self)
        return self


class _PooledEvent(Event):
    """A recycled one-shot event used by the engine's internal fast paths.

    Pooled events are created through :meth:`Engine.pooled_timeout` (and
    the engine's internal pokes), always enqueued already-triggered, and
    returned to the engine's pool as soon as their callbacks have run.
    They must therefore never be retained past their firing -- which is
    why the pool is only used for yield-and-forget sites like
    ``Host.kernel_path`` and the process bootstrap, never for events
    handed to arbitrary user code.
    """

    __slots__ = ()


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("timeout delay must be non-negative, got %r" % delay)
        super().__init__(engine)
        self._state = _TRIGGERED
        self._value = value
        self.delay = delay
        engine._enqueue(delay, self)


class Process(Event):
    """A simulated activity driven by a generator.

    The generator yields :class:`Event` objects.  The process resumes when
    the yielded event fires: with the event's value on success, or with the
    event's exception thrown into the generator on failure.  The process --
    itself an event -- succeeds with the generator's return value, or fails
    with any exception that escapes the generator.
    """

    __slots__ = ("_generator", "name")

    #: A failure normally waits in the process for whoever yields it; a
    #: subclass that sets this raises it out of ``engine.step`` instead
    #: (see ``Host.spawn_kernel_path``).
    surfaces_failure = False

    def __init__(self, engine: "Engine", generator: Generator, name: str = "",
                 immediate: bool = False):
        # Event.__init__, inlined: one process is spawned per kernel path.
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
        if immediate:
            # Run the generator to its first yield right now.  Only valid
            # from inside event processing (a callback): a firing
            # ``hw.host.Timer`` uses it so the timer body starts in the
            # deadline's own heap event, with no bootstrap hop after it.
            self._resume(_BOOTSTRAP)
        else:
            # Bootstrap: resume the generator as soon as the engine runs.
            engine._poke(self._resume)

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
            if self.surfaces_failure:
                raise
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
            # The event already fired; resume immediately (at current time).
            self.engine._poke(self._resume, target._value, target._exception)
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
            self.engine._enqueue(0.0, self)
        else:
            self._state = _PROCESSED


class Engine:
    """The simulation engine: clock, pending-event heap, event factories.

    Heap entries are ``(time, sequence, event)``.  The sequence number,
    claimed when an event is scheduled, makes simultaneous events fire in
    FIFO order, which makes every run deterministic.  Everything pending
    is on the heap -- zero-delay pokes, timeouts and kernel timers alike.
    """

    #: Upper bound on recycled events kept in the pool.
    _POOL_LIMIT = 1024

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._pool: List[_PooledEvent] = []
        #: Cancelled ``hw.host.Timer`` entries still on the heap.  They pop
        #: as no-op events; counting them keeps a dead deadline from
        #: holding :meth:`run` open or showing in :meth:`pending_count`.
        self.cancelled_timers = 0
        #: ``hw.host.Timer`` instances ever armed.
        self.timers_armed = 0
        self.events_processed = 0

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    # -- scheduling -------------------------------------------------------

    def _enqueue(self, delay: float, event: Event) -> None:
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, event))

    def pooled_timeout(self, delay: float, value=None) -> _PooledEvent:
        """A timeout drawn from the engine's recycle pool.

        Behaves exactly like :meth:`timeout` on the simulated timeline
        but allocates nothing in the steady state: the event object is
        recycled the moment its callbacks have run.  Callers must *not*
        keep a reference past the firing (no ``.value`` reads later); it
        is meant for the hot yield-and-forget pattern
        ``yield engine.pooled_timeout(us)`` inside processes.
        """
        if delay < 0:
            raise ValueError("timeout delay must be non-negative, got %r" % delay)
        # Called once per simulated CPU hold and per link delay: the
        # pool checkout is written out here, in _poke and in call_at.
        pool = self._pool
        event = pool.pop() if pool else _PooledEvent(self)
        event._state = _TRIGGERED
        event._value = value
        event._exception = None
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, event))
        return event

    def _poke(self, callback: Callable, value=None,
              exception: Optional[BaseException] = None) -> None:
        """Fire ``callback`` at the current time via a recycled event."""
        pool = self._pool
        event = pool.pop() if pool else _PooledEvent(self)
        event._state = _TRIGGERED
        event._value = value
        event._exception = exception
        event.callbacks.append(callback)
        self._sequence += 1
        heappush(self._heap, (self.now, self._sequence, event))

    def call_at(self, when: float, callback: Callable) -> _PooledEvent:
        """Fire ``callback(event)`` at absolute time ``when``; exact.

        The timestamp is pushed on the heap verbatim -- no ``now + delay``
        float round trip -- so an open-loop departure or a scheduled
        table update fires at the *bit-identical* instant its schedule
        computed.  ``when`` must not lie in the past.  The event is a
        recycled pool event: callers must not retain it.
        """
        if when < self.now:
            raise SimulationError(
                "call_at(%r) is in the past; clock is at %r" % (when, self.now))
        pool = self._pool
        event = pool.pop() if pool else _PooledEvent(self)
        event._state = _TRIGGERED
        event._value = None
        event._exception = None
        event.callbacks.append(callback)
        self._sequence += 1
        heappush(self._heap, (when, self._sequence, event))
        return event

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        try:
            self.now, _seq, event = heappop(self._heap)
        except IndexError:
            raise SimulationError(
                "step() called with no pending events") from None
        self.events_processed += 1
        event._state = _PROCESSED
        callbacks = event.callbacks
        if type(event) is _PooledEvent:
            # Pooled events reuse their callbacks list across recycles
            # (callers may not retain the event, so nothing can append
            # after the firing); value and exception are overwritten by
            # whichever checkout draws the event next.
            if callbacks:
                for callback in callbacks:
                    callback(event)
                callbacks.clear()
            pool = self._pool
            if len(pool) < self._POOL_LIMIT:
                pool.append(event)
        else:
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing live is pending or the clock passes ``until``.

        Without ``until`` the clock stops at the last live event: cancelled
        timers left on the heap are not popped.  When ``until`` is given
        the clock is left exactly at ``until`` even if no event fires at
        that instant, mirroring the behaviour expected by utilization
        sampling.
        """
        step = self.step
        heap = self._heap
        if until is None:
            while len(heap) > self.cancelled_timers:
                step()
            return
        if until < self.now:
            raise ValueError("cannot run until %r; clock is already at %r" % (until, self.now))
        while heap and heap[0][0] <= until:
            step()
        self.now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator`` and run until it finishes.

        Returns the process return value; re-raises any exception that
        escaped the generator.  Other concurrently scheduled events keep
        running while the process is alive.
        """
        process = self.process(generator, name=name)
        step = self.step
        heap = self._heap
        while process._state == _PENDING:
            if not heap:
                raise SimulationError(
                    "deadlock: process %r is waiting but no events are pending"
                    % process.name
                )
            step()
        return process.value

    def pending_count(self) -> int:
        """Live pending events: heap entries minus cancelled timers."""
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
