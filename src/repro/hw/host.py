"""Simulated host: one CPU, some NICs, deferred-action plumbing, timers.

A :class:`Host` is the hardware chassis, and it owns the one interrupt
path: :meth:`Host.frame_arrived` is the heap entry a NIC pushes for each
frame it admits to its receive ring (conceptually: the interrupt line is
raised when the device's receive latency is over).  It counts the frame
on the NIC, books the interrupt and the driver's receive charges, and
runs the device's registered input procedure at interrupt level.  The
operating-system models -- the SPIN kernel (``repro.spin.kernel``) and
the monolithic UNIX model (``repro.unixos``) -- subclass it and add only
what is theirs; "both systems use the same network device driver".

Kernel code runs as a :class:`~repro.hw.cpu.KernelPath`, which lives
beside the CPU's run queue in ``repro.hw.cpu``: two heap-callback frames
(start-and-run, then the end of the hold), not a coroutine.
:meth:`Host.kernel_path` is the generator a *process* (a system call, an
application) waits with.  A path that finds the CPU busy waits in the
run queue; the end of a hold hands the CPU to the next path and, unless
another entry is due at that instant, runs it at the end of the same
heap entry.  An interrupt starts the same way: its path starts inside
the interrupt's own entry, and costs a zero-delay bootstrap entry only
when another entry is due at that instant.

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

from heapq import heappush
from math import inf
from typing import Any, Callable, Dict, Generator, List, Tuple

from ..sim import Engine
from ..sim.engine import _PENDING
from .alpha import ALPHA_21064, CostTable
from .cpu import CPU, INTERRUPT_PRIORITY, THREAD_PRIORITY, KernelPath

__all__ = ["Host", "Timer"]


class Timer:
    """A cancellable kernel timer; fires ``fn(*args)`` as a kernel path.

    Arming pushes one entry on the engine's heap.  :meth:`cancel` only
    flags the timer: the dead entry pops later as a no-op, and
    ``engine.cancelled_timers`` counts such entries so they neither hold
    ``Engine.run()`` open nor show in ``pending_count()``.
    """

    __slots__ = ("host", "fn", "args", "priority", "name", "cancelled",
                 "fired")

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
        if not 0.0 <= delay_us < inf:
            raise ValueError("delay must be finite and non-negative, got %r" % delay_us)
        engine = host.engine
        engine.timers_armed += 1
        engine._sequence += 1
        heappush(engine._heap, (engine.now + delay_us, engine._sequence, Timer._fire, self))

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
        """Run ``fn(*args)`` as a kernel path from a process.

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
        """Start a kernel path on its own, from its own heap entry.

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

    def frame_arrived(self, arrival: Tuple) -> None:
        """A NIC's receive latency is over: ``arrival`` is ``(nic,
        frame)``, and this is the interrupt, in its own heap entry.

        Counts the frame on the NIC, then starts the interrupt handler
        both OS models share: a kernel path at
        :data:`~repro.hw.cpu.INTERRUPT_PRIORITY` running
        :meth:`interrupt_body`.

        Starting the path is the last thing this entry does.  So when
        nothing else is due at this instant, the path's zero-delay
        bootstrap would be the very next entry popped, and the path
        starts here instead, in the same order, one entry cheaper.  When
        something is due, the bootstrap keeps its place behind it.
        """
        nic, frame = arrival
        data = frame.data
        nic.rx_frames += 1
        nic.rx_bytes += len(data)
        try:
            input_fn, path_name = self._device_input[nic.name]
        except KeyError:
            input_fn, path_name = None, "%s-intr" % nic.name
        path = KernelPath(self, self.interrupt_body, (nic, data, input_fn),
                          INTERRUPT_PRIORITY, path_name)
        if self.engine.due_now():
            self.engine.call_after(0.0, KernelPath.start, path)
        else:
            path.start()

    def interrupt_body(self, nic, data: bytes, input_fn) -> None:
        """The interrupt handler, named as its path's profile label:
        entry, the driver's receive charges, ``input_fn`` if any, exit."""
        costs = self.costs
        # cpu.charge inlined (exact body, exact order): the kernel
        # path just opened an accumulator, so the stack is non-empty.
        cpu = self.cpu
        stack = cpu._stack
        times = cpu.category_times
        amount = costs.interrupt_entry
        stack[-1] += amount
        times["interrupt"] += amount
        # The driver pulls the frame out of the device: its receive
        # charges, and the ring slot retires.
        nic.rx_pending -= 1
        profile = nic.profile
        amount = profile.fixed_rx
        stack[-1] += amount
        times["driver"] += amount
        if profile.pio_rx_per_byte:
            amount = len(data) * profile.pio_rx_per_byte
            stack[-1] += amount
            times["driver-pio"] += amount
        if input_fn is not None:
            input_fn(nic, data)
        amount = costs.interrupt_exit
        stack[-1] += amount
        times["interrupt"] += amount
        self.interrupts_handled += 1

    def __repr__(self) -> str:
        return "<Host %s>" % self.name
