"""SPIN's dynamic event dispatcher (paper section 2).

Events are "defined and raised using the syntax of procedure declaration
and call"; handlers are procedures registered on an event, optionally
behind a *guard* -- an arbitrary predicate evaluated before the handler is
invoked.  "More than one handler may be installed on an event, and the
overhead of invoking each handler is roughly one procedure call."

This module reproduces that machinery with cost accounting:

* raising an event charges ``guard_eval`` per guard evaluated and
  ``dispatch_per_handler`` per handler invoked (the ~procedure-call cost
  the paper cites, measured by the ledger's ``sec2.dispatch-per-handler``
  row in ``repro.bench.claims``),
* handlers installed with ``mode="thread"`` are not run inline: each raise
  spawns a fresh kernel thread for them (the "thread" bars of Figure 5),
  charging ``thread_spawn`` in the raising context,
* inline handlers with a ``time_limit`` are *ephemeral* executions: if
  the handler charges more CPU than its allotment it is terminated --
  only the allotment is consumed and the termination is counted (paper
  sec. 3.3).  The paper bounds only interrupt-level execution, so a
  ``time_limit`` with ``mode="thread"`` is a :class:`DispatchError`,
* a handler that raises an exception is contained: the failure is counted
  on the handle and the event raise continues with the other handlers --
  an extension failure must not take down the kernel.

A raise runs the event's handler snapshot as one generated function
(``repro.spin.codegen``), compiled by the first raise after an install
or uninstall.  Generated code is the only dispatch path; the interpreted
scan it is checked against lives with the tests
(``tests/twins.py:reference_scan``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.cpu import THREAD_PRIORITY
from .codegen import compile_scan, handle_atom

__all__ = ["Dispatcher", "EventDecl", "HandlerHandle", "DispatchError"]


class DispatchError(RuntimeError):
    """Raised on invalid dispatcher operations."""


class HandlerHandle:
    """Capability for one installed (guard, handler) pair.

    Holding the handle confers the right to uninstall it.  The protocol
    managers hold handles on behalf of applications (paper sec. 3.1).
    """

    __slots__ = ("event", "handler", "guard", "mode", "time_limit", "label",
                 "atom", "operands", "installed", "node", "on_uninstall",
                 "invocations", "guard_rejections", "terminations", "failures",
                 "last_error")

    def __init__(self, event: "EventDecl", handler: Callable, guard: Optional[Callable],
                 mode: str, time_limit: Optional[float], label: str):
        self.event = event
        self.handler = handler
        self.guard = guard
        self.mode = mode
        self.time_limit = time_limit
        self.label = label or getattr(handler, "__name__", "handler")
        #: the handle's step shape and inlined guard operands, for
        #: ``repro.spin.codegen``: computed once, not per compile.
        self.atom, self.operands = handle_atom(mode, guard, time_limit)
        self.installed = True
        #: the protocol-graph node this handle delivers to, set by
        #: ``ProtocolGraph.install``: the graph's edges are the live
        #: handles that carry one.
        self.node: Optional[str] = None
        #: run by :meth:`uninstall`: a protocol manager's claim release.
        self.on_uninstall: Optional[Callable[[], None]] = None
        # statistics
        self.invocations = 0
        self.guard_rejections = 0
        self.terminations = 0
        self.failures = 0
        self.last_error: Optional[BaseException] = None

    def uninstall(self) -> None:
        if not self.installed:
            raise DispatchError("handler %r already uninstalled" % self.label)
        self.event._remove(self)
        self.installed = False
        host = self.event.dispatcher.host
        host.cpu.try_charge(host.costs.handler_uninstall, "dispatch")
        if self.on_uninstall is not None:
            self.on_uninstall()

    def __repr__(self) -> str:
        return "<HandlerHandle %s on %s mode=%s%s>" % (
            self.label, self.event.name, self.mode,
            "" if self.installed else " UNINSTALLED")


class EventDecl:
    """A declared event name; the capability needed to raise or install.

    The (guard, handler) list is scanned on every raise, so the scan
    order is cached as an immutable snapshot tuple, replaced on
    install/uninstall.  Raising over the snapshot gives the same
    semantics the old per-raise ``list(...)`` copy did -- handlers
    installed during a raise are not seen until the next raise, handlers
    uninstalled mid-raise are skipped via ``installed`` -- without
    allocating on the hot path.
    """

    __slots__ = ("dispatcher", "name", "handlers", "_snapshot", "_scan")

    def __init__(self, dispatcher: "Dispatcher", name: str):
        self.dispatcher = dispatcher
        self.name = name
        self.handlers: List[HandlerHandle] = []
        self._snapshot: Tuple[HandlerHandle, ...] = ()
        #: the snapshot's generated scan (``repro.spin.codegen``), or
        #: None until the next raise compiles it.
        self._scan: Optional[Callable] = None

    def _bump(self) -> None:
        self._snapshot = tuple(self.handlers)
        self._scan = None

    def _append(self, handle: HandlerHandle) -> None:
        self.handlers.append(handle)
        self._bump()

    def _remove(self, handle: HandlerHandle) -> None:
        self.handlers.remove(handle)
        self._bump()

    def __repr__(self) -> str:
        return "<Event %s (%d handlers)>" % (self.name, len(self.handlers))


class Dispatcher:
    """Per-kernel event dispatcher with cost accounting."""

    VALID_MODES = ("inline", "thread")

    def __init__(self, host):
        self.host = host
        self.events: Dict[str, EventDecl] = {}
        self.total_raises = 0
        self.total_invocations = 0
        #: dispatcher-wide failure and termination totals, bumped wherever
        #: the per-handle counters are; unlike a sum over live handles,
        #: they keep the counts of handles since uninstalled.
        self.total_failures = 0
        self.total_terminations = 0
        self.compiled_scans = 0

    #: perfbench's ``dispatch_churn`` still asks for flow entries; there
    #: are none, and :meth:`raise_flow` ignores the one it passes.
    flow_cache = SimpleNamespace(entry_for=lambda key: None)

    def register_metrics(self, registry) -> None:
        """Publish the dispatcher counters on a metrics registry."""
        registry.source("spin.dispatcher.raises", lambda: self.total_raises)
        registry.source("spin.dispatcher.invocations",
                        lambda: self.total_invocations)
        registry.source("spin.dispatcher.failures",
                        lambda: self.total_failures)
        registry.source("spin.dispatcher.terminations",
                        lambda: self.total_terminations)
        registry.source("spin.dispatcher.events", lambda: len(self.events))
        registry.source("spin.dispatcher.compiled_scans",
                        lambda: self.compiled_scans)

    # -- declaration ------------------------------------------------------

    def declare(self, name: str) -> EventDecl:
        """Declare (or fetch) the event ``name``."""
        if name not in self.events:
            self.events[name] = EventDecl(self, name)
        return self.events[name]

    # -- installation ---------------------------------------------------------

    def check_delivery(self, mode: str, time_limit: Optional[float]) -> None:
        """The checks :meth:`install` makes of ``mode`` and ``time_limit``."""
        if mode not in self.VALID_MODES:
            raise DispatchError("unknown delivery mode %r" % mode)
        if time_limit is not None:
            # A NaN or infinite allotment would never be exceeded: the
            # sec. 3.3 bound would be off, not loose.
            if not (time_limit > 0 and math.isfinite(time_limit)):
                raise DispatchError("time_limit must be positive and finite")
            if mode == "thread":
                raise DispatchError(
                    "time_limit bounds interrupt-level (inline) handlers "
                    "only (paper sec. 3.3)")

    def install(self, event: EventDecl, handler: Callable,
                guard: Optional[Callable] = None, mode: str = "inline",
                time_limit: Optional[float] = None,
                label: str = "") -> HandlerHandle:
        """Attach ``handler`` (behind ``guard``) to ``event``.

        This is the *mechanism*; policy (who may install what, ephemeral
        requirements) belongs to the protocol managers built on top.
        """
        if not isinstance(event, EventDecl):
            raise DispatchError("install requires an EventDecl capability")
        self.check_delivery(mode, time_limit)
        handle = HandlerHandle(event, handler, guard, mode, time_limit, label)
        event._append(handle)
        # Installing on a running system costs a few table updates.
        self.host.cpu.try_charge(self.host.costs.handler_install, "dispatch")
        return handle

    # -- raising ------------------------------------------------------------------

    def compile(self, event: EventDecl) -> Callable:
        """``event``'s scan, compiled if an install or uninstall dropped it; a
        kernel raise is ``(event._scan or dispatcher.compile(event))(args)``."""
        scan = event._scan
        if scan is None:
            scan = event._scan = compile_scan(self, event, event._snapshot)
        return scan

    def raise_event(self, event: EventDecl, *args) -> int:
        """Raise ``event`` with ``args`` (plain code; charges CPU).

        Returns the number of handlers that matched (ran inline or were
        delegated to a thread).  The public, capability-checked raise
        that extensions, examples, tests and the dispatch
        microbenchmarks (``bench/micro.py``) call; the kernel's own
        upcalls call the event's compiled scan directly.
        """
        try:
            scan = event._scan
        except AttributeError:
            raise DispatchError(
                "raise_event requires an EventDecl capability") from None
        return (scan or self.compile(event))(args)

    def raise_flow(self, event: EventDecl, flow, *args) -> int:
        """:meth:`raise_event` in one frame; ``flow`` is ignored (perfbench)."""
        try:
            scan = event._scan
        except AttributeError:
            raise DispatchError(
                "raise_flow requires an EventDecl capability") from None
        return (scan or self.compile(event))(args)

    # -- delivery -------------------------------------------------------------------

    def _delegate_to_thread(self, handle: HandlerHandle, args) -> None:
        costs = self.host.costs
        self.host.cpu.charge(costs.thread_spawn, "thread")
        self.host.cpu.charge(costs.process_wakeup, "thread")
        handle.invocations += 1
        self.total_invocations += 1

        def run_in_thread() -> None:
            # The handler is the first code its own kernel path runs, so
            # it charges straight into the path's fresh accumulator.
            try:
                handle.handler(*args)
            except Exception as exc:
                handle.failures += 1
                self.total_failures += 1
                handle.last_error = exc

        def spawn() -> None:
            self.host.spawn_kernel_path(run_in_thread, priority=THREAD_PRIORITY,
                                        name="evt-%s" % handle.label)
        self.host.defer(spawn)
