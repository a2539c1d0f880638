"""The broadcast signal the simulated operating systems wait on.

:class:`Signal` is a repeatable broadcast: every ``wait()`` outstanding
when ``fire(value)`` is called resumes with ``value``.  There is no
generic queued resource: each single-server FIFO (the CPU's run queue,
the Ethernet bus, the disk, a switch's egress lane) keeps its own queue
in the module that owns it.
"""

from __future__ import annotations

from typing import Any, List

from .engine import Engine, Event

__all__ = ["Signal"]


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
