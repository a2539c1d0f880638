"""Property test: the two delivery rungs are equivalent, hostile
extensions included.

The flow cache's contract (``repro.spin.flowcache``) is that replaying a
compiled plan is *observably identical* to re-scanning every guard: the
same handlers run in the same order, the same statistics move, and the
same simulated costs are charged in the same order.  There are two
rungs -- generated fast paths (default) and the uncached linear scan
(``REPRO_FLOW_CACHE=0``) -- so this drives random interleavings of
handler installs, uninstalls, explicit invalidations, and packet sends
(single, or bursts of one flow, so a flow's first sighting at a
snapshot, its compiling second raise and its replays all interleave
with the bumps) through two kernels in lockstep, one per rung, and
asserts the observable state never diverges: delivery log,
bit-identical charged microseconds, per-handle statistics, and the obs
metrics snapshot (minus the flow-cache counters, which measure the
rungs' mechanics and legitimately differ).

The containment arm exists twice -- the interpreted scan's ``except``s
and the ones the generated code carries -- so the extensions here
misbehave (paper secs. 2-3.4: a faulty extension may not take down the
kernel or another extension).  A guard may raise, return a verdict
whose truthiness raises, return a non-bool, or uninstall a neighbour; a
handler may raise, overrun its time limit, return garbage, uninstall
itself or a neighbour, or install another handler; either may be
delivered in a thread.  Flowless raises exercise the generated *scan*,
and raises outside any kernel path must fail with the same
``ChargeError`` on both rungs.  The dispatcher's failure and
termination totals must equal what the extensions injected.

A guard's side effect runs only when the guard is called, and a plan
does not call guards.  Every side effect here changes the handler set,
which replaces the event's snapshot and so invalidates any plan: the
guards stay pure functions of the flow key plus snapshot-invalidated
state, which is the contract the protocol managers uphold.
"""

from hypothesis import example, given, settings, strategies as st

from repro.obs.registry import MetricsRegistry
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.spin.flowcache import FlowEntry

KEYS = (0, 1, 2, 3)

#: guards: pure functions of the flow key first, then the hostile ones.
PURE_GUARDS = ("none", "even", "low", "not_one", "true")
HOSTILE_GUARDS = ("garbage", "raises", "bool_raises", "uninstalls")

#: handler bodies: log only; log then raise (a contained failure); log
#: then charge past a time limit (an ephemeral termination, inline only).
TAME_KINDS = ("plain", "failing", "hog")
HOSTILE_KINDS = ("garbage", "uninstall_self", "uninstall_neighbour",
                 "installer")
HOG_LIMIT = 2.0

#: the ladder: how each side raises and whether its cache is armed.
MODES = ("compiled", "linear")


def _op_lists(guards, kinds, deliveries, hostile):
    ops = [
        st.tuples(st.just("install"),
                  st.tuples(st.sampled_from(guards), st.sampled_from(kinds),
                            st.sampled_from(deliveries))),
        st.tuples(st.just("uninstall"), st.integers(0, 7)),
        st.tuples(st.just("invalidate"), st.just(None)),
        st.tuples(st.just("send"), st.integers(0, len(KEYS) - 1)),
        st.tuples(st.just("burst"),
                  st.tuples(st.integers(0, len(KEYS) - 1),
                            st.integers(2, 4))),
    ]
    if hostile:
        ops += [
            st.tuples(st.just("flowless"), st.integers(0, len(KEYS) - 1)),
            st.tuples(st.just("outside"),
                      st.tuples(st.integers(0, len(KEYS) - 1),
                                st.booleans())),
        ]
    return st.lists(st.one_of(*ops), min_size=1, max_size=40)


_tame_ops = _op_lists(PURE_GUARDS, TAME_KINDS, ("inline",), hostile=False)
_hostile_ops = _op_lists(PURE_GUARDS + HOSTILE_GUARDS,
                         TAME_KINDS + HOSTILE_KINDS, ("inline", "thread"),
                         hostile=True)


class _Explosive:
    """A guard verdict whose truthiness throws."""

    def __init__(self, side):
        self.side = side

    def __bool__(self):
        self.side.injected_failures += 1
        raise RuntimeError("no verdict")


class _Side:
    """One kernel driven through the op sequence under one ladder rung."""

    def __init__(self, mode: str):
        assert mode in MODES
        self.mode = mode
        self.engine = Engine()
        self.kernel = SpinKernel(self.engine, "prop-kernel")
        self.dispatcher = self.kernel.dispatcher
        # Forced per side so the property holds regardless of the
        # process-wide REPRO_FLOW_CACHE hatch.
        self.dispatcher.flow_cache.enabled = (mode == "compiled")
        self.event = self.dispatcher.declare("Prop.Packet")
        self.flows = {key: FlowEntry((key,)) for key in KEYS}
        self.handles = []
        self.log = []
        #: what each raise outside a kernel path returned or raised.
        self.outcomes = []
        #: the failures and terminations the extensions caused.
        self.injected_failures = 0
        self.injected_terminations = 0

    def _run(self, fn):
        self.engine.run_process(self.kernel.kernel_path(fn), name="prop-op")
        self.engine.run()

    def apply(self, op, arg):
        if op == "install":
            self._run(lambda: self._install(*arg))
        elif op == "uninstall":
            self._uninstall(arg)
        elif op == "invalidate":
            self.dispatcher.invalidate_event(self.event)
        elif op == "burst":
            key_idx, count = arg
            for _ in range(count):
                self._send(key_idx)
        elif op == "flowless":
            key = KEYS[arg]
            self._run(lambda: self.dispatcher.raise_event(self.event, key))
        elif op == "outside":
            self._outside(*arg)
        else:
            self._send(arg)

    def _uninstall_after(self, slot):
        """Uninstall the first installed handle after ``slot``."""
        for handle in self.handles[slot + 1:]:
            if handle.installed:
                handle.uninstall()
                return

    def _guard(self, name, slot):
        if name == "none":
            return None
        if name == "even":
            return lambda key: key % 2 == 0
        if name == "low":
            return lambda key: key < 2
        if name == "not_one":
            return lambda key: key != 1
        if name == "true":
            return lambda key: True
        if name == "garbage":
            return lambda key: "x" * (key % 2)   # a str, not a bool
        if name == "bool_raises":
            return lambda key: _Explosive(self)
        if name == "raises":
            def guard(key):
                self.injected_failures += 1
                raise ValueError("guard %d blew up" % slot)
            return guard
        assert name == "uninstalls"

        def guard(key):
            self._uninstall_after(slot)
            return key != 3
        return guard

    def _install(self, guard_name, kind, delivery):
        """Install one handler (inside a kernel path, which may be a
        raise: an ``installer`` handler calls this)."""
        slot = len(self.handles)
        cpu = self.kernel.cpu
        fired = []

        def handler(key):
            self.log.append((slot, key))
            if kind == "failing":
                self.injected_failures += 1
                raise RuntimeError("handler %d blew up" % slot)
            if kind == "hog":
                cpu.charge(HOG_LIMIT * 3, "handler")
                if delivery == "inline":
                    self.injected_terminations += 1
            elif kind == "garbage":
                return NotImplemented
            elif kind == "uninstall_self":
                if self.handles[slot].installed:
                    self.handles[slot].uninstall()
            elif kind == "uninstall_neighbour":
                self._uninstall_after(slot)
            elif kind == "installer" and not fired:
                fired.append(True)
                self._install("none", "plain", "inline")

        limited = kind == "hog" and delivery == "inline"
        self.handles.append(self.dispatcher.install(
            self.event, handler, guard=self._guard(guard_name, slot),
            mode=delivery, time_limit=HOG_LIMIT if limited else None,
            label="h%d" % slot))

    def _uninstall(self, pick):
        installed = [h for h in self.handles if h.installed]
        if not installed:
            return  # no-op applied identically on both sides
        self._run(installed[pick % len(installed)].uninstall)

    def _send(self, key_idx):
        key = KEYS[key_idx]
        if self.mode == "linear":
            self._run(lambda: self.dispatcher.raise_event(self.event, key))
        else:
            self._run(lambda: self.dispatcher.raise_flow(
                self.event, self.flows[key], key))

    def _outside(self, key_idx, flowless):
        """Raise with no kernel path open: no accumulator to charge."""
        key = KEYS[key_idx]
        try:
            if flowless or self.mode == "linear":
                result = self.dispatcher.raise_event(self.event, key)
            else:
                result = self.dispatcher.raise_flow(
                    self.event, self.flows[key], key)
        except Exception as exc:
            result = (type(exc).__name__, str(exc))
        self.outcomes.append(result)

    def metrics(self):
        """The obs snapshot, minus the flow-cache mechanics counters."""
        registry = MetricsRegistry()
        self.dispatcher.register_metrics(registry)
        self.kernel.cpu.register_metrics(registry)
        return {name: entry for name, entry in registry.snapshot().items()
                if not name.startswith("spin.flowcache.")}


class TestFlowCacheEquivalence:
    @given(_hostile_ops)
    @settings(max_examples=100, deadline=None)
    # A contained inline handler failure, under generated code.
    @example([("install", ("none", "failing", "inline")),
              ("burst", (0, 3)), ("flowless", 1)])
    # A guard-only step uninstalls a later handle mid-scan.
    @example([("install", ("uninstalls", "plain", "thread")),
              ("install", ("none", "plain", "inline")), ("flowless", 0)])
    # A valid plan raised with no kernel path open.
    @example([("install", ("none", "plain", "inline")),
              ("burst", (0, 3)), ("outside", (0, False))])
    def test_ladder_rungs_are_equivalent(self, ops):
        compiled, linear = (_Side(mode) for mode in MODES)
        for op, arg in ops:
            compiled.apply(op, arg)
            linear.apply(op, arg)

        # Identical delivery: same handlers, same packets, same order.
        assert linear.log == compiled.log
        # Bit-identical simulated time and cost accounting.
        assert linear.engine.now == compiled.engine.now
        assert (dict(linear.kernel.cpu.category_times)
                == dict(compiled.kernel.cpu.category_times))
        # Identical per-handle statistics.
        assert len(linear.handles) == len(compiled.handles)
        for lh, ch in zip(linear.handles, compiled.handles):
            assert lh.installed == ch.installed
            assert lh.invocations == ch.invocations
            assert lh.guard_rejections == ch.guard_rejections
            assert lh.failures == ch.failures
            assert lh.terminations == ch.terminations
        assert (linear.dispatcher.total_invocations
                == compiled.dispatcher.total_invocations)
        assert (linear.dispatcher.total_raises
                == compiled.dispatcher.total_raises)
        # Identical metrics snapshot outside the cache mechanics.
        assert linear.metrics() == compiled.metrics()
        # The same results, or the same error, outside a kernel path.
        assert linear.outcomes == compiled.outcomes
        # Every injected failure and termination is contained and counted.
        for side in (compiled, linear):
            assert side.dispatcher.total_failures == side.injected_failures
            assert (side.dispatcher.total_terminations
                    == side.injected_terminations)

    @given(_tame_ops)
    @settings(max_examples=10, deadline=None)
    def test_plans_replay_after_warmup(self, ops):
        """Sending the same flow three times in a row replays its plan
        through generated code: a plan is compiled when the flow repeats
        at one handler snapshot."""
        side = _Side("compiled")
        for op, arg in ops:
            side.apply(op, arg)
        side.apply("send", 0)  # sees flow 0 at this snapshot (or better)
        side.apply("send", 0)  # records its plan (or replays it)
        cache = side.dispatcher.flow_cache
        before = cache.hits
        side.apply("send", 0)  # now the plan exists and is fresh: replay
        assert cache.hits == before + 1
