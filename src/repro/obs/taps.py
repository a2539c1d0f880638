"""The two observation seams and the one way to subscribe to them.

Observers never rewrite the code they watch; they subscribe at a seam
the watched object declares, as an extension installs a handler on a
dispatcher event.  ``cpu.profile`` (:class:`CpuHook`) and ``nic.taps``
(:class:`NicTaps`) are ``None`` until the first listener subscribes and
``None`` again once the last one leaves, so an unobserved hot path pays
one attribute test per seam.  A listener defines only the ``on_<event>``
methods it wants.  For each event the seam keeps ``on_<event>``, the
tuple of its listeners' bound methods, and the code that owns the event
loops over that tuple in its own frame: ``NIC.stage_tx`` over
``taps.on_tx``, ``NIC.frame_on_wire`` over ``taps.on_rx`` and
``KernelPath._held`` over ``profile.on_consume``.  So an event costs one
call per listener that defines it, and no relay frame.  ``on_push`` is
heard at depth 0 only, the entry of a kernel path; ``on_pop`` at every
depth.  Charges are no event: :class:`CpuHook` books each one and
observers read it afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from ..hw.cpu import CategoryTimes

__all__ = ["CpuHook", "NicTaps", "Observer", "RingTracer"]


class _Seam:
    """Listener fan-out firing ``events``; creating one installs it as
    ``owner.<attr>``, and the last listener to leave removes it again.
    ``seam.on_<event>`` is the tuple of the listeners' ``on_<event>``."""

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
            setattr(self, method, bound)

    def join(self, listener) -> None:
        if listener not in self.listeners:
            self._bind(self.listeners + (listener,))

    def leave(self, listener) -> None:
        self._bind(tuple(x for x in self.listeners if x is not listener))
        if not self.listeners:
            setattr(self.owner, self.attr, None)


class _Cell(CategoryTimes):
    """One frame stack's charges by category, with the cells of the
    frames opened under it, by label."""

    __slots__ = ("path", "children")

    def __init__(self, path: Tuple[str, ...]):
        self.path = path
        self.children: Dict[str, "_Cell"] = {}


class CpuHook(_Seam):
    """``cpu.profile``: per-CPU frame stack, the one record of every
    charge, and listener fan-out for frames and consumption.

    While installed it swaps ``cpu.category_times`` for a
    :class:`_ProfilingTimes`, which books each charge and calls nobody:
    into the open frame stack's cell and into the innermost open frame's
    self-charge.  ``cells`` maps each stack's path (``(host, *frames)``)
    to its cell (``{category: us}``).  Listeners:
    ``on_push(hook, label)`` (a kernel path's entry: pushes at depth 0
    only), ``on_pop(hook, label, charged_us)`` (every frame, with its
    self-charge; ``hook.depth`` is its depth) and
    ``on_consume(hook, amount)`` (``KernelPath._held`` calls each).

    Inlined charge sites hold ``category_times`` in a local for a whole
    kernel path, so inside one the swap waits for the path's deferred actions.
    """

    attr = "profile"
    events = ("push", "pop", "consume")

    def __init__(self, host):
        cpu = host.cpu
        super().__init__(cpu)
        self.cpu = cpu
        self.host = host
        self.host_name = host.name
        # The open frame stack: its cell, its depth, and a linked stack
        # of the enclosing frames' (cell, charged, outer).
        self.depth = 0
        self._outer: Optional[tuple] = None
        self.times = _ProfilingTimes(_Cell((host.name,)))
        self.cells: Dict[Tuple[str, ...], Dict[str, float]] = {(host.name,): self.times.cell}
        self._swap()

    def _swap(self) -> None:
        """Make ``category_times`` this hook's table while it is installed,
        else a plain :class:`CategoryTimes`, with the same totals: now, or
        after the path."""
        cpu = self.cpu
        if cpu._stack:
            self.host.defer(self._swap)
        elif cpu.profile is self:
            if cpu.category_times is not self.times:
                self.times.update(cpu.category_times)
                cpu.category_times = self.times
        elif cpu.profile is None and type(cpu.category_times) is not CategoryTimes:
            cpu.category_times = CategoryTimes(cpu.category_times)

    def leave(self, listener) -> None:
        super().leave(listener)
        self._swap()

    def push(self, label: str) -> None:
        depth = self.depth
        if not depth:
            for on_push in self.on_push:
                on_push(self, label)
        times = self.times
        cell = times.cell
        self._outer = (cell, times.charged, self._outer)
        try:
            times.cell = cell.children[label]
        except KeyError:
            times.cell = self._open(cell, label)
        times.charged = 0.0
        self.depth = depth + 1

    def _open(self, parent: _Cell, label: str) -> _Cell:
        """The first push of ``label`` under ``parent`` makes its cell."""
        path = parent.path + (label,)
        cell = parent.children[label] = self.cells[path] = _Cell(path)
        return cell

    def pop(self) -> None:
        times = self.times
        charged = times.charged
        label = times.cell.path[-1]
        times.cell, times.charged, self._outer = self._outer
        self.depth -= 1
        for on_pop in self.on_pop:
            on_pop(self, label, charged)


class _ProfilingTimes(CategoryTimes):
    """``category_times`` replacement booking every charge into ``cell``
    (the open frame stack's) and ``charged`` (the innermost frame's)."""

    __slots__ = ("cell", "charged")

    def __init__(self, cell: _Cell):
        self.cell = cell
        self.charged = 0.0

    def __setitem__(self, key, value, _set=dict.__setitem__):
        delta = value - self[key]
        if delta != 0.0:
            self.cell[key] += delta
            self.charged += delta
        _set(self, key, value)


class NicTaps(_Seam):
    """``nic.taps``: told of every ``NIC.stage_tx`` / ``frame_on_wire`` on
    entry, by the NIC calling each of ``on_tx`` / ``on_rx``.  Listeners:
    ``on_tx(nic, data)``, ``on_rx(nic, frame, accepted)`` (``accepted``
    is the NIC's own address-filter verdict)."""

    attr = "taps"
    events = ("tx", "rx")


class Observer:
    """Base of every observer.  ``detach()`` leaves exactly the seams this
    observer joined, so observers come and go in any order; a second
    ``detach()`` is a no-op."""

    _seams: Tuple[_Seam, ...] = ()  # live subscriptions only

    def attach(self, hosts=(), nics=()):
        """Subscribe to each host's ``cpu.profile`` and each NIC's ``taps``."""
        seams = [host.cpu.profile or CpuHook(host) for host in hosts]
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
    Subclasses call :meth:`_record`, or append to ``_ring`` and count
    ``_recorded`` themselves, and define ``noun`` and ``_line``.
    """

    noun = "records"

    def __init__(self, engine, limit: int):
        if limit <= 0:
            raise ValueError("%s limit must be positive" % type(self).__name__)
        self.engine = engine
        self.limit = limit
        self._ring: deque = deque(maxlen=limit)
        self._recorded = 0

    @property
    def records(self) -> list:
        """Retained records, oldest first (a fresh list)."""
        return list(self._ring)

    @property
    def dropped_records(self) -> int:
        return self._recorded - len(self._ring)

    def _record(self, record) -> None:
        self._ring.append(record)
        self._recorded += 1

    def clear(self) -> None:
        self._ring.clear()
        self._recorded = 0

    def render(self, last: Optional[int] = None) -> str:
        """One line per retained record, or per each of the ``last`` ones."""
        records = self.records
        if last is not None:
            if last < 0:
                raise ValueError("render(last=%d): cannot render a negative count" % last)
            records = records[-last:] if last else []
        lines = [self._line(record) for record in records]
        dropped = self.dropped_records
        if dropped:
            lines.append("... %d %s dropped (ring limit %d)" % (dropped, self.noun, self.limit))
        return "\n".join(lines)
