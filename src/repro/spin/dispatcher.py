"""SPIN's dynamic event dispatcher (paper section 2).

Events are "defined and raised using the syntax of procedure declaration
and call"; handlers are procedures registered on an event, optionally
behind a *guard* -- an arbitrary predicate evaluated before the handler is
invoked.  "More than one handler may be installed on an event, and the
overhead of invoking each handler is roughly one procedure call."

This module reproduces that machinery with cost accounting:

* raising an event charges ``guard_eval`` per guard evaluated and
  ``dispatch_per_handler`` per handler invoked (the ~procedure-call cost
  the paper cites, measured by ``benchmarks/test_micro_dispatcher.py``),
* handlers installed with ``mode="thread"`` are not run inline: each raise
  spawns a fresh kernel thread for them (the "thread" bars of Figure 5),
  charging ``thread_spawn`` in the raising context,
* handlers with a ``time_limit`` are *ephemeral* executions: if the
  handler charges more CPU than its allotment it is terminated -- only the
  allotment is consumed and the termination is counted (paper sec. 3.3),
* a handler that raises an exception is contained: the failure is counted
  on the handle and the event raise continues with the other handlers --
  an extension failure must not take down the kernel.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.cpu import MISMATCHED_END, OUTSIDE_PATH, THREAD_PRIORITY, ChargeError
from .codegen import MAX_COMPILED_STEPS, compile_plan, compile_scan
from .flowcache import CompiledPlan, FlowCache, FlowEntry

__all__ = ["Dispatcher", "EventDecl", "HandlerHandle", "DispatchError"]

_handler_ids = itertools.count(1)


class DispatchError(RuntimeError):
    """Raised on invalid dispatcher operations."""


class HandlerHandle:
    """Capability for one installed (guard, handler) pair.

    Holding the handle confers the right to uninstall it.  The protocol
    managers hold handles on behalf of applications (paper sec. 3.1).
    """

    __slots__ = ("event", "handler", "guard", "mode", "time_limit", "label",
                 "handler_id", "installed", "graph_edge", "invocations",
                 "guard_rejections", "terminations", "failures", "last_error")

    def __init__(self, event: "EventDecl", handler: Callable, guard: Optional[Callable],
                 mode: str, time_limit: Optional[float], label: str):
        self.event = event
        self.handler = handler
        self.guard = guard
        self.mode = mode
        self.time_limit = time_limit
        self.label = label or getattr(handler, "__name__", "handler")
        self.handler_id = next(_handler_ids)
        self.installed = True
        #: the ProtocolGraph edge carrying this handle, when one exists;
        #: set by the graph so uninstalling from either side keeps the
        #: graph and the dispatcher in lockstep.
        self.graph_edge = None
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
        edge = self.graph_edge
        if edge is not None and not edge.removed:
            # Keep the graph authoritative: dropping the handler drops its
            # edge immediately, however the uninstall was reached.
            edge.graph._unlink_edge(edge)

    def __repr__(self) -> str:
        return "<HandlerHandle %s on %s mode=%s%s>" % (
            self.label, self.event.name, self.mode,
            "" if self.installed else " UNINSTALLED")


class EventDecl:
    """A declared event name; the capability needed to raise or install.

    The (guard, handler) list is scanned on every raise, so the scan
    order is cached as an immutable snapshot tuple and invalidated on
    install/uninstall.  Raising over the snapshot gives the same
    semantics the old per-raise ``list(...)`` copy did -- handlers
    installed during a raise are not seen until the next raise, handlers
    uninstalled mid-raise are skipped via ``installed`` -- without
    allocating on the hot path.
    """

    __slots__ = ("dispatcher", "name", "handlers", "raise_count", "_snapshot",
                 "generation", "_scan")

    def __init__(self, dispatcher: "Dispatcher", name: str):
        self.dispatcher = dispatcher
        self.name = name
        self.handlers: List[HandlerHandle] = []
        self.raise_count = 0
        self._snapshot: Tuple[HandlerHandle, ...] = ()
        #: dispatcher-wide monotonic epoch stamped on every bump (install,
        #: uninstall, explicit ``Dispatcher.invalidate_event``).  Epochs
        #: never recur -- not across uninstall/reinstall, not across
        #: events -- unlike the earlier per-event +1 counter, whose value
        #: an uninstall/reinstall pair could coincidentally restore.
        self.generation = 0
        #: compiled flowless fast path: ``(snapshot, fn)`` from
        #: ``repro.spin.codegen``, cleared on every bump.
        self._scan = None

    def _bump(self) -> None:
        # A *fresh* snapshot tuple even when the handler list is
        # unchanged: compiled artifacts (plans and scans) validate by
        # snapshot identity, so replacing the tuple is what invalidates
        # them.  Their own reference keeps the old tuple alive, making
        # id-reuse aliasing impossible.
        self._snapshot = tuple(self.handlers)
        self._scan = None
        self.generation = next(self.dispatcher._epochs)

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
        self.flow_cache = FlowCache()
        #: source of event generations: one monotonic epoch stream per
        #: dispatcher, shared by every event, so no generation value is
        #: ever issued twice (see EventDecl.generation).
        self._epochs = itertools.count(1)

    def register_metrics(self, registry) -> None:
        """Publish dispatcher + flow-cache counters on a metrics registry."""
        registry.source("spin.dispatcher.raises", lambda: self.total_raises)
        registry.source("spin.dispatcher.invocations",
                        lambda: self.total_invocations)
        registry.source("spin.dispatcher.failures",
                        lambda: self.total_failures)
        registry.source("spin.dispatcher.terminations",
                        lambda: self.total_terminations)
        registry.source("spin.dispatcher.events", lambda: len(self.events))
        self.flow_cache.register_metrics(registry)

    def invalidate_event(self, event: EventDecl) -> None:
        """Invalidate every compiled artifact recorded for ``event``.

        Managers call this when live state a guard reads (e.g. the TCP
        special/diverted port sets) changes without an install on the
        event itself.  The bump replaces the event's snapshot tuple (the
        identity compiled plans and scans validate against) and stamps a
        fresh epoch; artifacts for other events stay valid -- no global
        flush.
        """
        event._bump()

    # -- declaration ------------------------------------------------------

    def declare(self, name: str) -> EventDecl:
        """Declare (or fetch) the event ``name``."""
        if name not in self.events:
            self.events[name] = EventDecl(self, name)
        return self.events[name]

    # -- installation ---------------------------------------------------------

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
        if mode not in self.VALID_MODES:
            raise DispatchError("unknown delivery mode %r" % mode)
        if time_limit is not None and time_limit <= 0:
            raise DispatchError("time_limit must be positive")
        handle = HandlerHandle(event, handler, guard, mode, time_limit, label)
        event._append(handle)
        # Installing on a running system costs a few table updates.
        self.host.cpu.try_charge(self.host.costs.handler_install, "dispatch")
        return handle

    # -- raising ------------------------------------------------------------------

    def raise_event(self, event: EventDecl, *args) -> int:
        """Raise ``event`` with ``args`` (plain code; charges CPU).

        Returns the number of handlers that matched (ran inline or were
        delegated to a thread).  The hot raise is a compiled scan -- one
        generated function per handler-snapshot shape (see
        ``repro.spin.codegen``) -- validated by snapshot identity;
        everything else funnels through :meth:`_raise_cold`.
        """
        try:
            scan = event._scan
        except AttributeError:
            raise DispatchError(
                "raise_event requires an EventDecl capability") from None
        if scan is not None and scan[0] is event._snapshot:
            return scan[1](args)
        return self._raise_cold(event, None, args)

    # -- flow-cached raising ------------------------------------------------------

    def raise_flow(self, event: EventDecl, flow: Optional[FlowEntry],
                   *args) -> int:
        """Raise ``event`` along a classified flow (plain code).

        Semantically identical to :meth:`raise_event` -- same handlers
        run, same statistics move, same simulated costs are charged in
        the same order -- but on a cache hit the recorded guard verdicts
        run as a generated straight-line function instead of calling
        each guard, which is where the host-side demultiplexing time
        goes.  The plan is compiled when the flow repeats: its first
        raise at the event's current handler snapshot runs the scan,
        the second records and compiles, and later ones hit.  ``flow``
        is the packet's :class:`FlowEntry` (``None`` falls back to the
        flowless scan).
        """
        if flow is None:
            return self.raise_event(event, *args)
        plan = flow.plans.get(event)
        # Validity is snapshot *identity*: immune to the counter
        # coincidences a wrapped/reset generation could produce (a stale
        # plan's reference keeps its old tuple alive, so ids never alias).
        if plan is not None and plan.snapshot is event._snapshot:
            self.flow_cache.hits += 1
            return plan.fn(args)
        return self._raise_cold(event, flow, args)

    def _raise_cold(self, event: EventDecl, flow: Optional[FlowEntry],
                    args) -> int:
        """Every raise with no valid compiled artifact lands here.

        This is the *single* divergence point of the two rungs (any
        verdict-ordering change happens once):

        * cache disabled (``REPRO_FLOW_CACHE=0``), or an event past
          ``MAX_COMPILED_STEPS``: the interpreted linear scan, nothing
          recorded or compiled -- what the oracle runs;
        * flowless: compile and immediately run the event's scan
          function;
        * flow given: classify the miss (absent plan) or invalidation
          (stale plan) and run the interpreted reference scan.  The
          flow's first such raise at this handler snapshot only remembers
          the snapshot; the second one at the same (identical) snapshot
          records the verdicts, then compiles and caches the plan.
        """
        cache = self.flow_cache
        try:
            snapshot = event._snapshot
        except AttributeError:
            raise DispatchError(
                "raise_flow requires an EventDecl capability") from None
        record = None
        if cache.enabled and len(snapshot) <= MAX_COMPILED_STEPS:
            if flow is not None:
                if event in flow.plans:
                    cache.invalidations += 1
                else:
                    cache.misses += 1
                # Compile on repeat: a flow seen once at a snapshot, or
                # one whose snapshot churns between its raises, never
                # pays for a compile.
                seen = flow.seen
                if seen.get(event) is snapshot:
                    record = []
                else:
                    seen[event] = snapshot
            else:
                fn = compile_scan(self, event, snapshot)
                event._scan = (snapshot, fn)
                return fn(args)
        matched, cacheable = self._scan_linear(event, snapshot, args, record)
        # A raise in which any guard threw is not cached (failure
        # accounting must re-run per packet), nor is one that disturbed
        # the event mid-raise (the verdicts describe a dead snapshot).
        if record is not None and cacheable and event._snapshot is snapshot:
            steps = tuple(record)
            flow.plans[event] = CompiledPlan(
                event.generation, snapshot, steps,
                compile_plan(self, event, steps))
        return matched

    def _scan_linear(self, event: EventDecl, snapshot, args,
                     record) -> Tuple[int, bool]:
        """The interpreted linear scan: the reference semantics.

        Returns ``(matched, cacheable)``; appends ``(handle, verdict)``
        pairs to ``record`` when recording for a flow plan.  This is the
        one interpreted implementation: what the ``REPRO_FLOW_CACHE=0``
        oracle runs per raise, and the generated code's semantic template.
        cpu.charge / begin / end / recharge are inlined below (exact
        bodies, exact order): at one dispatch per simulated packet hop
        the call frames themselves dominate host-side dispatch time.
        """
        costs = self.host.costs
        cpu = self.host.cpu
        stack = cpu._stack
        times = cpu.category_times
        guard_cost = costs.guard_eval
        handler_cost = costs.dispatch_per_handler
        event.raise_count += 1
        self.total_raises += 1
        matched = 0
        cacheable = True
        # Off-by-default observability hook (repro.obs): one attribute
        # load + None check per raise when no profiler is attached.
        profile = cpu.profile
        if profile is not None:
            profile.push(event.name)
        try:
            for handle in snapshot:
                if not handle.installed:
                    continue
                guard = handle.guard
                if guard is not None:
                    if not stack:
                        raise ChargeError(OUTSIDE_PATH)
                    stack[-1] += guard_cost
                    times["dispatch"] += guard_cost
                    try:
                        if not guard(*args):
                            handle.guard_rejections += 1
                            if record is not None:
                                record.append((handle, False))
                            continue
                    except Exception as exc:  # guard failure: no match
                        handle.failures += 1
                        self.total_failures += 1
                        handle.last_error = exc
                        cacheable = False
                        continue
                matched += 1
                if record is not None:
                    record.append((handle, True))
                if not stack:
                    raise ChargeError(OUTSIDE_PATH)
                stack[-1] += handler_cost
                times["dispatch"] += handler_cost
                if handle.mode == "thread":
                    self._delegate_to_thread(handle, args)
                    continue
                # Inline delivery, flattened into the loop: one call
                # frame per handler is measurable here.
                handle.invocations += 1
                self.total_invocations += 1
                stack.append(0.0)
                marker = len(stack)
                try:
                    handle.handler(*args)
                except Exception as exc:  # containment: may not crash kernel
                    handle.failures += 1
                    self.total_failures += 1
                    handle.last_error = exc
                finally:
                    if marker != len(stack):
                        raise ChargeError(MISMATCHED_END % (marker, len(stack)))
                    spent = stack.pop()
                limit = handle.time_limit
                if limit is not None and spent > limit:
                    # Premature termination: only the allotment is consumed
                    # (paper sec. 3.3).
                    handle.terminations += 1
                    self.total_terminations += 1
                    stack[-1] += limit
                else:
                    stack[-1] += spent
        finally:
            if profile is not None:
                profile.pop()
        return matched, cacheable

    # -- delivery -------------------------------------------------------------------

    def _delegate_to_thread(self, handle: HandlerHandle, args) -> None:
        costs = self.host.costs
        self.host.cpu.charge(costs.thread_spawn, "thread")
        self.host.cpu.charge(costs.process_wakeup, "thread")
        handle.invocations += 1
        self.total_invocations += 1

        def run_in_thread() -> None:
            marker = self.host.cpu.begin()
            try:
                handle.handler(*args)
            except Exception as exc:
                handle.failures += 1
                self.total_failures += 1
                handle.last_error = exc
            finally:
                spent = self.host.cpu.end(marker)
            self.host.cpu.recharge(spent)

        def spawn() -> None:
            self.host.spawn_kernel_path(run_in_thread, priority=THREAD_PRIORITY,
                                        name="evt-%s" % handle.label)
        self.host.defer(spawn)
