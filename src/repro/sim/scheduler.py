"""The scheduling core under :class:`repro.sim.engine.Engine`.

:class:`SchedulerCore` is the extracted heart of the discrete-event
engine: the clock, the pending-event heap, the zero-delay FIFO fast
path, the global sequence counter that makes simultaneous events fire in
deterministic FIFO order, the recycled-event pool, and the lazily
created hierarchical timer wheel.  :class:`~repro.sim.engine.Engine`
adds the process-interaction surface on top.

Two additions beyond the historical ``Engine`` surface:

* :meth:`SchedulerCore.call_at` -- schedule a callback at an *absolute*
  simulated time (open-loop traffic sources, scheduled control-plane
  updates);
* :meth:`SchedulerCore.next_event_time` -- the exact timestamp of the
  earliest pending event (heap, FIFO queue, or timer wheel), without
  processing anything.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

__all__ = ["SchedulerCore", "SimulationError"]

_FAR = float("inf")


class SimulationError(Exception):
    """Base class for errors raised by the simulation machinery itself."""


# Event lifecycle states (shared with repro.sim.engine's Event classes).
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, not yet processed
_PROCESSED = 2

#: The recycled-event class, registered by repro.sim.engine at import
#: time (the class hierarchy lives there; registering avoids a cycle).
_POOLED = None


def _register_pooled(cls) -> None:
    global _POOLED
    _POOLED = cls


class SchedulerCore:
    """Clock + pending-event heap: the one scheduling implementation.

    Heap entries are ordered by ``(time, priority, sequence)``.  Priority
    is currently always 0 for events scheduled through the public
    interface; the sequence number guarantees FIFO order among
    simultaneous events, which in turn makes every simulation run
    deterministic.

    Fast path: most events in a protocol simulation fire "now"
    (zero-delay pokes, already-charged completions), so zero-delay
    default-priority events bypass the heap into a FIFO deque.  Every
    scheduled event still carries a global sequence number and
    :meth:`step` merges the two structures in exact
    ``(time, priority, sequence)`` order, so the observable execution
    order -- and therefore every simulated-time number -- is identical
    to the all-heap implementation.
    """

    #: Upper bound on recycled events kept in the pool.
    _POOL_LIMIT = 1024

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, object]] = []
        self._now_queue: Deque[Tuple[int, object]] = deque()
        self._sequence = 0
        self._pool: List[object] = []
        self._wheel = None  # lazily-created TimerWheel (see .wheel)
        self.events_processed = 0

    @property
    def wheel(self):
        """The engine's hierarchical timer wheel, created on first use.

        Deadlines parked here (kernel timers: retransmit, delayed ACK,
        persist, keepalive, TIME_WAIT) schedule and cancel in O(1) and
        cascade lazily into the main heap with the exact
        ``(time, priority, sequence)`` tuple they claimed at schedule
        time, so execution order is bit-identical to heap scheduling.
        """
        wheel = self._wheel
        if wheel is None:
            from .timers import TimerWheel
            wheel = self._wheel = TimerWheel(self)
        return wheel

    # -- scheduling -------------------------------------------------------

    def _enqueue(self, delay: float, event, priority: int = 0) -> None:
        self._sequence += 1
        if delay == 0.0 and priority == 0:
            # Zero-delay events fire at the current time; the deque keeps
            # them out of the heap.  All entries sit at (self.now, 0, seq).
            self._now_queue.append((self._sequence, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, priority, self._sequence, event))

    def pooled_timeout(self, delay: float, value=None):
        """A timeout drawn from the engine's recycle pool.

        Behaves exactly like ``Engine.timeout`` on the simulated timeline
        but allocates nothing in the steady state: the event object is
        recycled the moment its callbacks have run.  Callers must *not*
        keep a reference past the firing (no ``.value`` reads later, no
        use in ``any_of``/``all_of``); it is meant for the hot
        yield-and-forget pattern ``yield engine.pooled_timeout(us)``
        inside processes.
        """
        if delay < 0:
            raise ValueError("timeout delay must be non-negative, got %r" % delay)
        # _checkout + _enqueue, inlined: this is called once per simulated
        # CPU hold and per link delay, the hottest allocation site.
        pool = self._pool
        event = pool.pop() if pool else _POOLED(self)
        event._state = _TRIGGERED
        event._value = value
        event._exception = None
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self._sequence, event))
        else:
            heapq.heappush(self._heap,
                           (self.now + delay, 0, self._sequence, event))
        return event

    def _checkout(self, value, exception: Optional[BaseException]):
        pool = self._pool
        if pool:
            event = pool.pop()
        else:
            event = _POOLED(self)
        event._state = _TRIGGERED
        event._value = value
        event._exception = exception
        return event

    def _poke(self, callback: Callable, value=None,
              exception: Optional[BaseException] = None):
        """Fire ``callback`` at the current time via a recycled event."""
        pool = self._pool
        event = pool.pop() if pool else _POOLED(self)
        event._state = _TRIGGERED
        event._value = value
        event._exception = exception
        event.callbacks.append(callback)
        self._sequence += 1
        self._now_queue.append((self._sequence, event))
        return event

    def call_at(self, when: float, callback: Callable):
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
        event = pool.pop() if pool else _POOLED(self)
        event._state = _TRIGGERED
        event._value = None
        event._exception = None
        event.callbacks.append(callback)
        self._sequence += 1
        heapq.heappush(self._heap, (when, 0, self._sequence, event))
        return event

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        queue = self._now_queue
        heap = self._heap
        wheel = self._wheel
        if wheel is not None and wheel._live:
            # A parked deadline could precede the heap/queue candidate:
            # spill everything due by then so the heap merge sees it.
            if queue:
                if wheel._next_due <= self.now:
                    wheel._spill(self.now)
            elif heap:
                if wheel._next_due <= heap[0][0]:
                    wheel._spill(heap[0][0])
            else:
                wheel._spill_next()
        from_heap = True
        if queue:
            # Queue entries sit at (self.now, 0, seq); the heap head runs
            # first only when it is globally earlier in that order.
            if heap:
                head = heap[0]
                when = head[0]
                from_heap = (when < self.now or
                             (when == self.now and
                              (head[1] < 0 or
                               (head[1] == 0 and head[2] < queue[0][0]))))
            else:
                from_heap = False
        if from_heap:
            if not heap:
                raise SimulationError("step() called with no pending events")
            when, _priority, _seq, event = heapq.heappop(heap)
            self.now = when
        else:
            _seq, event = queue.popleft()
        self.events_processed += 1
        # Event._process, inlined: this is the innermost loop of the whole
        # simulator and the extra call frame is measurable.
        event._state = _PROCESSED
        if type(event) is _POOLED:
            # Pooled events reuse their callbacks list across recycles
            # (callers may not retain the event, so nothing can append
            # after the firing); value and exception are overwritten by
            # whichever checkout draws the event next.
            callbacks = event.callbacks
            if callbacks:
                for callback in callbacks:
                    callback(event)
                callbacks.clear()
            pool = self._pool
            if len(pool) < self._POOL_LIMIT:
                pool.append(event)
        else:
            callbacks = event.callbacks
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if no event fires at that instant, mirroring the behaviour expected
        by utilization sampling.
        """
        if until is not None and until < self.now:
            raise ValueError("cannot run until %r; clock is already at %r" % (until, self.now))
        step = self.step
        if until is None:
            while self._heap or self._now_queue or (
                    self._wheel is not None and self._wheel._live):
                step()
            return
        while True:
            if self._now_queue:
                # Queue entries fire at self.now, which never exceeds until.
                step()
                continue
            wheel = self._wheel
            if wheel is not None and wheel._live and wheel._next_due <= until:
                # Park-to-heap everything that could fire inside the
                # window; afterwards _next_due is strictly beyond it.
                wheel._spill(until)
            heap = self._heap
            if not heap:
                break
            if heap[0][0] > until:
                self.now = until
                return
            step()
        self.now = until

    # -- safe-window execution (conservative parallel mode) ----------------

    def next_event_time(self) -> float:
        """Exact timestamp of the earliest pending event (``inf`` if none).

        Unlike the timer wheel's ``_next_due`` -- which is only a lower
        bound -- this is exact: the wheel is spilled far enough that the
        heap head *is* the answer.  Spilling early is always safe (spilled
        deadlines keep the exact ``(time, priority, seq)`` tuple they
        claimed at schedule time), so calling this never perturbs
        execution order.  Nothing is processed and the clock does not
        move.
        """
        if self._now_queue:
            return self.now
        heap = self._heap
        wheel = self._wheel
        if wheel is not None and wheel._live:
            if heap:
                if wheel._next_due <= heap[0][0]:
                    wheel._spill(heap[0][0])
            else:
                while wheel._live and not heap:
                    wheel._spill_next()
        if heap:
            return heap[0][0]
        return _FAR

    def pending_count(self) -> int:
        count = len(self._heap) + len(self._now_queue)
        if self._wheel is not None:
            count += self._wheel._live
        return count
