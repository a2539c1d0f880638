"""Property test: the two delivery rungs are equivalent.

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

Guards here are pure functions of the flow key, which is exactly the
correctness contract the protocol managers uphold.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.registry import MetricsRegistry
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.spin.flowcache import FlowEntry

# Pure functions of the flow key: the only guards a flow-routed event
# may carry (see the flowcache module docstring).
GUARDS = [
    None,
    lambda key: key % 2 == 0,
    lambda key: key < 2,
    lambda key: key != 1,
    lambda key: True,
]

KEYS = (0, 1, 2, 3)

#: handler bodies: log only; log then raise (a contained failure); log
#: then charge past a time limit (an ephemeral termination).
KINDS = ("plain", "failing", "hog")
HOG_LIMIT = 2.0

#: the ladder: how each side raises and whether its cache is armed.
MODES = ("compiled", "linear")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"),
                  st.tuples(st.integers(0, len(GUARDS) - 1),
                            st.sampled_from(KINDS))),
        st.tuples(st.just("uninstall"), st.integers(0, 7)),
        st.tuples(st.just("invalidate"), st.just(None)),
        st.tuples(st.just("send"), st.integers(0, len(KEYS) - 1)),
        st.tuples(st.just("burst"),
                  st.tuples(st.integers(0, len(KEYS) - 1),
                            st.integers(2, 4))),
    ),
    min_size=1, max_size=40)


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

    def _run(self, fn):
        self.engine.run_process(self.kernel.kernel_path(fn), name="prop-op")
        self.engine.run()

    def apply(self, op, arg):
        if op == "install":
            self._install(*arg)
        elif op == "uninstall":
            self._uninstall(arg)
        elif op == "invalidate":
            self.dispatcher.invalidate_event(self.event)
        elif op == "burst":
            key_idx, count = arg
            for _ in range(count):
                self._send(key_idx)
        else:
            self._send(arg)

    def _install(self, guard_idx, kind):
        slot = len(self.handles)
        cpu = self.kernel.cpu

        def handler(key, _slot=slot):
            self.log.append((_slot, key))
            if kind == "failing":
                raise RuntimeError("handler %d blew up" % _slot)
            if kind == "hog":
                cpu.charge(HOG_LIMIT * 3, "handler")

        def do():
            self.handles.append(self.dispatcher.install(
                self.event, handler, guard=GUARDS[guard_idx],
                time_limit=HOG_LIMIT if kind == "hog" else None,
                label="h%d" % slot))
        self._run(do)

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

    def metrics(self):
        """The obs snapshot, minus the flow-cache mechanics counters."""
        registry = MetricsRegistry()
        self.dispatcher.register_metrics(registry)
        self.kernel.cpu.register_metrics(registry)
        return {name: entry for name, entry in registry.snapshot().items()
                if not name.startswith("spin.flowcache.")}


class TestFlowCacheEquivalence:
    @given(_ops)
    @settings(max_examples=50, deadline=None)
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

    @given(_ops)
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
        replays_before = cache.compiled_replays
        side.apply("send", 0)  # now the plan exists and is fresh: replay
        assert cache.hits == before + 1
        assert cache.compiled_replays == replays_before + 1
