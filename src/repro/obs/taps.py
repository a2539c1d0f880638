"""The two observation seams and the one way to subscribe to them.

Observers never rewrite the code they watch; they subscribe at a seam
the watched object declares, as an extension installs a handler on a
dispatcher event.  ``cpu.profile`` (:class:`CpuHook`) and ``nic.taps``
(:class:`NicTaps`) are ``None`` until the first listener subscribes and
``None`` again once the last one leaves, so an unobserved hot path pays
one attribute test per seam.  A listener defines only the ``on_<event>``
methods it wants; the fan-out loops never call a stub.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

__all__ = ["CpuHook", "NicTaps", "Observer", "RingTracer"]


class _Seam:
    """Listener fan-out firing ``events``; creating one installs it as
    ``owner.<attr>``, and the last listener to leave removes it again."""

    def __init__(self, owner):
        self.owner = owner
        setattr(owner, self.attr, self)
        self._bind(())

    def _bind(self, listeners: tuple) -> None:
        # Fresh tuples, never mutated: a fan-out loop that is running
        # while a listener (un)subscribes finishes over the old set.
        self.listeners = listeners
        for event in self.events:
            method = "on_" + event
            bound = tuple(getattr(x, method) for x in listeners if hasattr(x, method))
            setattr(self, "_" + event, bound)

    def join(self, listener) -> None:
        if listener not in self.listeners:
            self._bind(self.listeners + (listener,))

    def leave(self, listener) -> None:
        self._bind(tuple(x for x in self.listeners if x is not listener))
        if not self.listeners:
            setattr(self.owner, self.attr, None)


class CpuHook(_Seam):
    """``cpu.profile``: per-CPU frame stack plus listener fan-out.

    While installed it also swaps ``cpu.category_times`` for a
    :class:`_ProfilingTimes`.  Listeners: ``on_push(hook, label)``,
    ``on_pop(hook, label)``, ``on_charge(hook, category, amount)``,
    ``on_consume(hook, amount)``.
    """

    attr = "profile"
    events = ("push", "pop", "charge", "consume")

    def __init__(self, cpu, host_name: str):
        super().__init__(cpu)
        self.cpu = cpu
        self.host_name = host_name
        self.frames: List[str] = []
        cpu.category_times = _ProfilingTimes(cpu.category_times, self)

    def leave(self, listener) -> None:
        super().leave(listener)
        if self.cpu.profile is None:
            # Same contents, plain dict: the uninstrumented hot path.
            self.cpu.category_times = dict(self.cpu.category_times)

    def push(self, label: str) -> None:
        for on_push in self._push:
            on_push(self, label)
        self.frames.append(label)

    def pop(self) -> None:
        label = self.frames.pop()
        for on_pop in self._pop:
            on_pop(self, label)

    def consumed(self, amount: float) -> None:
        for on_consume in self._consume:
            on_consume(self, amount)


class _ProfilingTimes(dict):
    """``category_times`` replacement reporting every charge to the hook."""

    __slots__ = ("hook",)

    def __init__(self, initial, hook: CpuHook):
        dict.__init__(self, initial)
        self.hook = hook

    def __setitem__(self, key, value):
        delta = value - self.get(key, 0.0)
        if delta != 0.0:
            hook = self.hook
            for on_charge in hook._charge:
                on_charge(hook, key, delta)
        dict.__setitem__(self, key, value)


class NicTaps(_Seam):
    """``nic.taps``: told of every ``NIC.stage_tx`` / ``frame_on_wire`` on
    entry.  Listeners: ``on_tx(nic, data)``, ``on_rx(nic, frame, accepted)``
    (``accepted`` is the NIC's own address-filter verdict)."""

    attr = "taps"
    events = ("tx", "rx")

    def tx(self, data) -> None:
        for on_tx in self._tx:
            on_tx(self.owner, data)

    def rx(self, frame, accepted: bool) -> None:
        for on_rx in self._rx:
            on_rx(self.owner, frame, accepted)


class Observer:
    """Base of every observer.  ``detach()`` leaves exactly the seams this
    observer joined, so observers come and go in any order; a second
    ``detach()`` is a no-op."""

    _seams: Tuple[_Seam, ...] = ()  # live subscriptions only

    def attach(self, hosts=(), nics=()):
        """Subscribe to each host's ``cpu.profile`` and each NIC's ``taps``."""
        seams = [host.cpu.profile or CpuHook(host.cpu, host.name) for host in hosts]
        seams += [nic.taps or NicTaps(nic) for nic in nics]
        for seam in seams:
            seam.join(self)
        self._seams += tuple(seam for seam in seams if seam not in self._seams)
        return self

    def detach(self) -> None:
        for seam in self._seams:
            seam.leave(self)
        self._seams = ()


class RingTracer(Observer):
    """An observer that keeps what it sees in a ring of ``limit`` records.

    Once full, each new record overwrites the oldest
    (``dropped_records`` counts the overwrites), so the tail of a long
    run -- the part a chaos repro bundle wants -- is always retained.
    Subclasses call :meth:`_record` and define ``noun`` and ``_line``.
    """

    noun = "records"

    def __init__(self, engine, limit: int):
        if limit <= 0:
            raise ValueError("%s limit must be positive" % type(self).__name__)
        self.engine = engine
        self.limit = limit
        self._ring: deque = deque(maxlen=limit)
        self.dropped_records = 0

    @property
    def records(self) -> list:
        """Retained records, oldest first (a fresh list)."""
        return list(self._ring)

    def _record(self, record) -> None:
        if len(self._ring) == self.limit:
            self.dropped_records += 1
        self._ring.append(record)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped_records = 0

    def render(self, last: Optional[int] = None) -> str:
        """One line per retained record (optionally only the tail)."""
        records = self.records
        if last is not None:
            records = records[-last:]
        lines = [self._line(record) for record in records]
        dropped = self.dropped_records
        if dropped:
            lines.append("... %d %s dropped (ring limit %d)" % (dropped, self.noun, self.limit))
        return "\n".join(lines)
