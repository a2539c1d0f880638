"""Synchronization and queuing primitives built on the event engine.

These are the building blocks the simulated operating systems use:

* :class:`Resource` -- a counted resource with a priority FIFO wait queue,
  for the shared Ethernet bus and the disk.  (The simulated CPU is not
  one: it is a run queue of its own, ``repro.hw.cpu``.)
* :class:`Signal` -- a repeatable broadcast: every ``wait()`` outstanding
  when ``fire(value)`` is called resumes with ``value``.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from .engine import Engine, Event, SimulationError, _PENDING

__all__ = ["Resource", "ResourceRequest", "Signal"]


class ResourceRequest(Event):
    """Event representing one pending acquisition of a :class:`Resource`.

    Fires (succeeds) when the resource grants the request.  The holder must
    eventually call :meth:`release`.
    """

    __slots__ = ("resource", "priority", "granted_at", "_released")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__, inlined: one request is created per CPU hold.
        self.engine = resource.engine
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.resource = resource
        self.priority = priority
        self.granted_at: Optional[float] = None
        self._released = False

    def release(self) -> None:
        if self._released:
            raise SimulationError("resource request released twice")
        self._released = True
        if self.granted_at is not None:
            self.resource.release()
        # else cancelled while queued: _grant_waiters skips released requests.


class Resource:
    """A counted resource with a priority FIFO wait queue.

    Lower ``priority`` values are served first; ties are FIFO.  Grants are
    *non-preemptive*: once a request is granted it holds a unit of capacity
    until released.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._sequence = 0
        self._waiting: List[Tuple[int, int, ResourceRequest]] = []

    def try_acquire(self) -> bool:
        """Take a unit right now if nobody is ahead: :meth:`request` minus
        the request object and the grant event.  Hold sites fall back to
        ``yield resource.request(priority)`` when this returns False, and
        give the unit back with :meth:`release` either way."""
        if not self._waiting and self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def request(self, priority: int = 0) -> ResourceRequest:
        """Return a request event; yield it to wait for the grant."""
        req = ResourceRequest(self, priority)
        self._sequence += 1
        heapq.heappush(self._waiting, (priority, self._sequence, req))
        self._grant_waiters()
        return req

    def _grant_waiters(self) -> None:
        while self._waiting and self.in_use < self.capacity:
            _prio, _seq, req = heapq.heappop(self._waiting)
            if req._released:  # cancelled while queued
                continue
            self.in_use += 1
            req.granted_at = self.engine.now
            # Granted with None, not the request: an event whose value is
            # itself is a cycle only the (quiesced) cyclic GC can free.
            req.succeed()

    def release(self) -> None:
        """Give back one unit (however it was taken); grant the next waiter."""
        if self.in_use <= 0:
            raise SimulationError("release on a resource with nothing in use")
        self.in_use -= 1
        if self._waiting:
            self._grant_waiters()


class Signal:
    """A repeatable broadcast condition.

    Each call to :meth:`wait` returns a fresh one-shot event; :meth:`fire`
    resumes every waiter outstanding at that moment with the fired value.
    Persistent observers can :meth:`subscribe` instead: a subscriber runs
    synchronously inside *every* fire until unsubscribed, which is what
    lets a ``Poller`` watch thousands of sockets without re-arming a
    waiter per socket per wakeup.
    """

    __slots__ = ("engine", "_waiters", "_subscribers", "fire_count")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._waiters: List[Event] = []
        self._subscribers: List[Any] = []
        self.fire_count = 0

    def wait(self) -> Event:
        evt = Event(self.engine)
        self._waiters.append(evt)
        return evt

    def subscribe(self, callback) -> None:
        """Run ``callback(value)`` inside every future :meth:`fire`.

        Callbacks run in the firing context (for socket signals: the
        sender's kernel path), so they may charge CPU costs there.  They
        must not subscribe/unsubscribe on this same signal re-entrantly.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        self._subscribers.remove(callback)

    def fire(self, value: Any = None) -> int:
        """Fire the signal; returns the number of waiters resumed."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for evt in waiters:
            evt.succeed(value)
        if self._subscribers:
            for callback in self._subscribers:
                callback(value)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)
