"""Simulated host: one CPU, some NICs, deferred-action plumbing, timers.

A :class:`Host` is the hardware chassis, and it owns the one interrupt
path: :meth:`Host.frame_arrived` is invoked (conceptually: the interrupt
line is raised) whenever a NIC finishes receiving a frame, and runs the
device's registered input procedure at interrupt level.  The
operating-system models -- the SPIN kernel (``repro.spin.kernel``) and
the monolithic UNIX model (``repro.unixos``) -- subclass it and add only
what is theirs; "both systems use the same network device driver".

Kernel code runs as a :class:`KernelPath`, a chain of heap callbacks
(acquire, run, hold, release), not a coroutine; :meth:`Host.kernel_path`
is the generator a *process* (a system call, an application) waits with.
A path that finds the CPU busy waits in the CPU's run queue
(``repro.hw.cpu``); the release that ends a hold hands the CPU to the
next path and, unless another entry is due at that instant, runs it at
the end of the same heap entry.  An interrupt starts the same way: its
path starts inside the NIC's entry that raised it, and costs a zero-delay
bootstrap entry only when another entry is due at that instant.

Deferred hardware actions
-------------------------

Plain (non-yielding) kernel code cannot interact with the event engine
directly, so side effects into hardware (starting a transmission, kicking
DMA) are *deferred*: the device driver appends a thunk via :meth:`defer`,
and the enclosing kernel path executes the thunks after the accumulated
CPU charge has been consumed.  This keeps cause (CPU work) strictly before
effect (wire activity) on the simulated timeline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from ..sim import Engine
from ..sim.engine import _PENDING, _PROCESSED, Event
from .alpha import ALPHA_21064, CostTable
from .cpu import CPU, INTERRUPT_PRIORITY, THREAD_PRIORITY, ChargeError

__all__ = ["Host", "KernelPath", "Timer"]


class KernelPath(Event):
    """Plain kernel code ``fn(*args)`` run on the CPU, as one continuation.

    :meth:`start` takes the CPU (or joins its run queue), runs ``fn``
    under a fresh charge accumulator, holds the CPU for what ``fn``
    charged, releases it and flushes the deferred hardware actions, so
    wire activity never precedes the CPU work that caused it.  The path
    is an event whose completion runs its callbacks in the entry that
    ended the hold: a waiting process resumes right there.  If ``fn``
    raises, the path still holds the CPU for what it charged and flushes
    what it deferred; then the CPU is released and a waiter gets the
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
        """Take the CPU now if it is free, else join its run queue; a
        release hands the CPU over later."""
        if self.host.cpu.acquire(self):
            self._run()

    def _run(self) -> None:
        host = self.host
        cpu = host.cpu
        fn = self.fn
        # Off-by-default observability hook: one attribute load + None
        # check per path when no profiler/tracer is attached.  Kept for
        # the hold, which books to the profile the path ran under.
        self._profile = profile = cpu.profile
        if profile is not None:
            profile.push(getattr(fn, "__name__", "kernel_path"))
        # cpu.begin()/end() inlined (exact bodies): one push/pop per path.
        stack = cpu._stack
        stack.append(0.0)
        marker = len(stack)
        try:
            try:
                self._value = fn(*self.args)
            finally:
                if profile is not None:
                    profile.pop()
                if marker != len(stack):
                    amount = 0.0  # a broken accumulator: nothing to hold
                    raise ChargeError(
                        "mismatched cpu.end(): marker %d but stack depth %d"
                        % (marker, len(stack)))
                amount = stack.pop()
                # Snapshot-and-reset, without allocating a fresh list when
                # nothing was deferred.  The empty snapshot must not alias
                # the live list: actions deferred during the hold below
                # belong to the *next* flush.
                deferred = host._deferred
                if deferred:
                    host._deferred = []
                else:
                    deferred = ()
        except Exception as exc:
            # A failed path costs what it charged, like any other path.
            self._exception = exc
            if amount > 0:
                self._amount = amount
                self._deferred = deferred
                self.engine.call_after(amount, KernelPath._held_failed, self)
            else:
                self._fail(())
            return
        if amount > 0:
            self._amount = amount
            self._deferred = deferred
            self.engine.call_after(amount, KernelPath._held, self)
            return
        # Released inside whatever entry started this path: the next
        # path always gets its own zero-delay entry.
        successor = cpu.release()
        if successor is not None:
            self.engine.call_after(0.0, KernelPath._run, successor)
        self._complete(deferred)

    def _held(self) -> None:
        """The end of the hold: release the CPU, flush, complete.

        The next path's zero-delay entry is pushed at release, before
        the flush, only if another entry is due at this instant.  With
        none due, that entry would have been the next one popped --
        everything the flush and the completion push comes after it --
        so the path runs at the end of this entry instead, in the same
        order, one heap entry cheaper."""
        amount = self._amount
        cpu = self.host.cpu
        cpu.busy_time += amount
        profile = self._profile
        if profile is not None:
            profile.consumed(amount)
        successor = cpu.release()
        if successor is not None and self.engine.due_now():
            self.engine.call_after(0.0, KernelPath._run, successor)
            successor = None
        self._complete(self._deferred)
        if successor is not None:
            successor._run()

    def _held_failed(self) -> None:
        """The end of a failed path's hold: consume it as :meth:`_held`
        does, then fail."""
        amount = self._amount
        self.host.cpu.busy_time += amount
        profile = self._profile
        if profile is not None:
            profile.consumed(amount)
        self._fail(self._deferred)

    def _fail(self, deferred) -> None:
        """Release the CPU, flush, and complete with the exception.

        The next path always gets its own zero-delay entry: a failure
        with no waiter leaves this entry, and must not strand the CPU
        with it (every later path would queue behind it forever)."""
        successor = self.host.cpu.release()
        if successor is not None:
            self.engine.call_after(0.0, KernelPath._run, successor)
        self._complete(deferred)
        if not self.callbacks:
            raise self._exception

    def _complete(self, deferred) -> None:
        """Flush the deferred actions, then complete the path."""
        for action in deferred:
            action()
        self._state = _PROCESSED
        for callback in self.callbacks:
            callback(self)

    def __repr__(self) -> str:
        return "<KernelPath %s>" % self.name


class Timer:
    """A cancellable kernel timer; fires ``fn(*args)`` as a kernel path.

    Arming pushes one entry on the engine's heap.  :meth:`cancel` only
    flags the timer: the dead entry pops later as a no-op, and
    ``engine.cancelled_timers`` counts such entries so they neither hold
    ``Engine.run()`` open nor show in ``pending_count()``.
    """

    __slots__ = ("host", "fn", "args", "priority", "name", "cancelled",
                 "fired", "expires_at")

    def __init__(self, host: "Host", delay_us: float, fn: Callable,
                 args: Tuple = (), priority: int = THREAD_PRIORITY,
                 name: str = "timer"):
        self.host = host
        self.fn = fn
        self.args = args
        self.priority = priority
        self.name = name
        self.cancelled = False
        self.fired = False
        engine = host.engine
        self.expires_at = engine.now + delay_us
        engine.timers_armed += 1
        engine.call_after(delay_us, Timer._fire, self)

    def _fire(self) -> None:
        host = self.host
        if self.cancelled:
            host.engine.cancelled_timers -= 1
            return
        self.fired = True
        KernelPath(host, self.fn, self.args, self.priority, self.name).start()

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if not self.fired:
                self.host.engine.cancelled_timers += 1


class Host:
    """Base simulated machine."""

    def __init__(self, engine: Engine, name: str,
                 costs: CostTable = ALPHA_21064):
        self.engine = engine
        self.name = name
        self.costs = costs
        self.cpu = CPU(engine, costs, name="%s.cpu" % name)
        self.nics: Dict[str, Any] = {}
        self._deferred: List[Callable[[], None]] = []
        #: nic name -> (input procedure, precomputed interrupt-path label)
        self._device_input: Dict[str, Tuple[Callable, str]] = {}
        self.interrupts_handled = 0

    # -- wiring -------------------------------------------------------------

    def add_nic(self, nic) -> None:
        if nic.name in self.nics:
            raise ValueError("duplicate NIC name %r on host %s" % (nic.name, self.name))
        self.nics[nic.name] = nic
        nic.host = self

    def register_device_input(self, nic, input_fn: Callable) -> None:
        """Bind the bottom of a protocol stack to a device.

        ``input_fn(nic, frame_data)`` is plain code run at interrupt level
        for every received frame (typically the link-layer protocol's
        input procedure).
        """
        # The interrupt-process label is fixed per device: precompute it
        # so the per-frame path does no string formatting.
        self._device_input[nic.name] = (input_fn, "%s-intr" % nic.name)

    # -- deferred hardware actions -------------------------------------------

    def defer(self, action: Callable[[], None]) -> None:
        """Queue a hardware side effect to run after the current charge."""
        self._deferred.append(action)

    def take_deferred(self) -> List[Callable[[], None]]:
        actions, self._deferred = self._deferred, []
        return actions

    # -- kernel execution ------------------------------------------------------

    def kernel_path(self, fn: Callable, args: Tuple = (),
                    priority: int = THREAD_PRIORITY) -> Generator:
        """Run ``fn(*args)`` as a :class:`KernelPath` from a process.

        ``yield from host.kernel_path(fn)`` waits only if the path does
        (a busy CPU, a non-zero charge) and returns ``fn``'s return value,
        or raises what ``fn`` raised.
        """
        path = KernelPath(self, fn, args, priority)
        path.start()
        if path._state == _PENDING:
            yield path
        return path._value

    def spawn_kernel_path(self, fn: Callable, args: Tuple = (),
                          priority: int = THREAD_PRIORITY,
                          name: str = "kpath") -> KernelPath:
        """Start a :class:`KernelPath` on its own, from its own heap entry.

        The bootstrap entry is kept on purpose: its callers (thread
        delegation, chaos's close and abort) push more after it in their
        entry, and starting the path inside that entry would reorder
        same-instant CPU requests.  :meth:`frame_arrived`, which is the
        tail of its entry, skips it when nothing else is due.
        """
        path = KernelPath(self, fn, args, priority, name)
        self.engine.call_after(0.0, KernelPath.start, path)
        return path

    def set_timer(self, delay_us: float, fn: Callable, args: Tuple = (),
                  priority: int = THREAD_PRIORITY, name: str = "timer") -> Timer:
        return Timer(self, delay_us, fn, args, priority, name)

    # -- interrupt entry point ---------------------------------------------------

    def frame_arrived(self, nic, frame) -> None:
        """Called by a NIC when a frame has been received.

        The interrupt handler both OS models share: a kernel path at
        :data:`~repro.hw.cpu.INTERRUPT_PRIORITY` that pays interrupt
        entry, the driver's receive charges (retiring the ring slot), the
        registered device input if there is one, and interrupt exit.

        This is the last thing the NIC's interrupt entry does.  So when
        nothing else is due at this instant, the path's zero-delay
        bootstrap would be the very next entry popped, and the path
        starts here instead, in the same order, one entry cheaper.  When
        something is due, the bootstrap keeps its place behind it.
        """
        entry = self._device_input.get(nic.name)
        if entry is not None:
            input_fn, path_name = entry
        else:
            input_fn, path_name = None, "%s-intr" % nic.name

        def interrupt_body() -> None:
            costs = self.costs
            # cpu.charge inlined (exact body, exact order): the kernel
            # path just opened an accumulator, so the stack is non-empty.
            cpu = self.cpu
            stack = cpu._stack
            times = cpu.category_times
            amount = costs.interrupt_entry
            stack[-1] += amount
            try:
                times["interrupt"] += amount
            except KeyError:
                times["interrupt"] = amount
            nic.driver_recv_charges(frame)
            if input_fn is not None:
                input_fn(nic, frame.data)
            amount = costs.interrupt_exit
            stack[-1] += amount
            try:
                times["interrupt"] += amount
            except KeyError:
                times["interrupt"] = amount
            self.interrupts_handled += 1

        path = KernelPath(self, interrupt_body, (), INTERRUPT_PRIORITY,
                          path_name)
        if self.engine.due_now():
            self.engine.call_after(0.0, KernelPath.start, path)
        else:
            path.start()

    def __repr__(self) -> str:
        return "<Host %s>" % self.name
