"""Generated delivery paths (codegen): the two-rung bit-exactness ladder.

The dispatcher serves event raises two ways -- generated Python fast
paths (default) and the uncached linear scan (``REPRO_FLOW_CACHE=0``,
the reference oracle) -- and the contract is that the two are
*observably identical*: same handlers in the same order, same
per-handle statistics, bit-identical simulated time and category
accounting, identical profiler stacks.  These tests drive the corner
cases directly (thread delegation, time limits, guard exceptions,
mid-raise uninstalls), plus the machinery around the ladder: shape
sharing, the step cap, generation/epoch hygiene, and the obs
``compiled-path`` metric requirement.
"""

import pytest

from repro.hw.cpu import ChargeError
from repro.obs.__main__ import _missing_categories
from repro.obs.profiler import CpuProfiler
from repro.obs.registry import MetricsRegistry
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.spin.codegen import MAX_COMPILED_STEPS, shape_cache_size
from repro.spin.flowcache import FlowEntry

MODES = ("compiled", "linear")


class _Side:
    """One kernel driven through a scenario under one ladder rung.

    ``compiled`` raises along held :class:`FlowEntry` objects, one per
    flow key (guards on flow-routed events are pure functions of the key
    -- the flowcache contract); ``linear`` has its cache disabled and
    uses the flowless ``raise_event``, as a ``REPRO_FLOW_CACHE=0`` run
    does.  ``send_flowless`` raises without a flow on both rungs, which
    on the compiled rung exercises the generated *scan* (live guard
    calls) rather than a recorded plan.  ``flow_cache.enabled`` is forced
    per side so the tests are independent of the process environment.
    """

    def __init__(self, mode: str):
        assert mode in MODES
        self.mode = mode
        self.engine = Engine()
        # One shared kernel name: profiler folded stacks lead with it,
        # and the parity test compares them byte-for-byte across modes.
        self.kernel = SpinKernel(self.engine, "gen-kernel")
        self.dispatcher = self.kernel.dispatcher
        self.dispatcher.flow_cache.enabled = (mode == "compiled")
        self.event = self.dispatcher.declare("Gen.Packet")
        self.flows = {}
        self.handles = []
        self.log = []

    def flow(self, key):
        if key not in self.flows:
            self.flows[key] = FlowEntry((key,))
        return self.flows[key]

    def run(self, fn):
        self.engine.run_process(self.kernel.kernel_path(fn), name="gen-op")
        self.engine.run()

    def install(self, handler=None, **kwargs):
        slot = len(self.handles)
        if handler is None:
            def handler(*args, _slot=slot):
                self.log.append((_slot, args))
        self.run(lambda: self.handles.append(
            self.dispatcher.install(self.event, handler,
                                    label="h%d" % slot, **kwargs)))
        return self.handles[-1]

    def send(self, key):
        if self.mode == "linear":
            self.run(lambda: self.dispatcher.raise_event(self.event, key))
        else:
            self.run(lambda: self.dispatcher.raise_flow(
                self.event, self.flow(key), key))

    def send_flowless(self, key):
        self.run(lambda: self.dispatcher.raise_event(self.event, key))


def _assert_equivalent(sides):
    """Every observable except the flow-cache counters must agree."""
    ref = sides[0]
    for side in sides[1:]:
        assert side.log == ref.log, (side.mode, ref.mode)
        # Bit-identical simulated time and per-category accounting.
        assert side.engine.now == ref.engine.now
        assert (dict(side.kernel.cpu.category_times)
                == dict(ref.kernel.cpu.category_times))
        assert len(side.handles) == len(ref.handles)
        for sh, rh in zip(side.handles, ref.handles):
            assert sh.installed == rh.installed
            assert sh.invocations == rh.invocations
            assert sh.guard_rejections == rh.guard_rejections
            assert sh.terminations == rh.terminations
            assert sh.failures == rh.failures
        assert (side.dispatcher.total_invocations
                == ref.dispatcher.total_invocations)
        assert side.dispatcher.total_raises == ref.dispatcher.total_raises


def _published(cache):
    """The cache's counters as it publishes them (all but its size)."""
    registry = MetricsRegistry()
    cache.register_metrics(registry)
    return {name: row["value"] for name, row in registry.snapshot().items()
            if name != "spin.flowcache.capacity"}


def _both_rungs(scenario):
    """Run ``scenario(side)`` on both rungs and cross-check."""
    sides = [_Side(mode) for mode in MODES]
    for side in sides:
        scenario(side)
    _assert_equivalent(sides)
    # The oracle side really did stay interpreted.
    assert not any(_published(sides[1].dispatcher.flow_cache).values())
    return sides


# ---------------------------------------------------------------------------
# directed equivalence, rung against rung
# ---------------------------------------------------------------------------

class TestRungEquivalence:
    def test_plain_handlers_replay_compiled(self):
        def scenario(side):
            side.install()
            side.install(guard=lambda key: key % 2 == 0)
            for key in (0, 1, 2, 3) * 3:
                side.send(key)
        sides = _both_rungs(scenario)
        cache = sides[0].dispatcher.flow_cache
        # The first pass only sees each flow, the second compiles its
        # plan, the third replays it.
        assert cache.compiled_plans == 4   # one plan per flow key
        assert cache.compiled_replays == 4
        assert cache.hits == 4

    def test_flowless_scan_matches_interpreter(self):
        def scenario(side):
            side.install()
            side.install(guard=lambda value: value % 2 == 0)
            for value in range(6):
                side.send_flowless(value)
        sides = _both_rungs(scenario)
        assert sides[0].dispatcher.flow_cache.compiled_scan_raises == 6

    def test_thread_mode_delegates_identically(self):
        def scenario(side):
            side.install()
            side.install(mode="thread")
            side.install(mode="thread", guard=lambda key: key > 0)
            for key in (0, 1, 1, 0):
                side.send(key)
        _both_rungs(scenario)

    def test_time_limit_terminations(self):
        def scenario(side):
            def hog(*args):
                side.kernel.cpu.charge(50.0, "handler")
            side.install(handler=hog, time_limit=10.0)
            side.install()  # delivery continues after a termination
            for _ in range(3):
                side.send(0)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].terminations == 3

    def test_guard_exception_is_never_cached(self):
        def scenario(side):
            def bad_guard(key):
                raise ValueError("guard blew up")
            side.install(guard=bad_guard)
            side.install()
            for _ in range(3):
                side.send(0)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[0].invocations == 0
            assert side.handles[1].invocations == 3
        # Failure accounting must re-run per packet: a raise in which a
        # guard threw records no plan, so the compiled rung never replays.
        assert sides[0].flows[0].plans == {}
        assert sides[0].dispatcher.flow_cache.compiled_replays == 0

    def test_generated_scan_contains_guard_exceptions(self):
        def scenario(side):
            def bad_guard(value):
                raise ValueError("guard blew up")
            side.install(guard=bad_guard)
            side.install()
            for value in range(3):
                side.send_flowless(value)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[1].invocations == 3
        assert sides[0].dispatcher.flow_cache.compiled_scan_raises == 3

    def test_guard_truthiness_exception_contained(self):
        # The generated scan keeps ``not guard(...)`` inside the try: a
        # verdict object whose __bool__ throws is contained exactly as
        # the interpreter contains it.
        class Explosive:
            def __bool__(self):
                raise RuntimeError("no verdict")

        def scenario(side):
            side.install(guard=lambda value: Explosive())
            side.install()
            side.send_flowless(0)
            side.send_flowless(1)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].failures == 2

    def test_handler_exception_contained(self):
        def scenario(side):
            def boom(*args):
                raise RuntimeError("handler blew up")
            side.install(handler=boom)
            side.install()
            for _ in range(3):
                side.send(0)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[1].invocations == 3

    def test_mid_raise_uninstall_skips_later_handler(self):
        def scenario(side):
            state = {"sends": 0}

            def saboteur(*args):
                side.log.append(("saboteur", args))
                if state["sends"] == 3 and side.handles[1].installed:
                    side.handles[1].uninstall()

            side.install(handler=saboteur)
            side.install()  # the victim: uninstalled mid-raise on send 2
            for _ in range(4):
                state["sends"] += 1
                side.send(0)
        sides = _both_rungs(scenario)
        for side in sides:
            # Send 2 compiles the flow's plan and send 3 replays it
            # (generated code on the compiled rung); the uninstall lands
            # before the victim's step, so it saw sends 1 and 2 only and
            # never runs again.
            assert side.handles[1].invocations == 2
            assert not side.handles[1].installed

    def test_raise_outside_kernel_context_raises_everywhere(self):
        for mode in MODES:
            side = _Side(mode)
            side.install(guard=lambda key: True)
            side.send(0)  # warm: the compiled rung sees the flow...
            side.send(0)  # ...then records and compiles its plan
            with pytest.raises(ChargeError):
                if mode == "linear":
                    side.dispatcher.raise_event(side.event, 0)
                else:
                    side.dispatcher.raise_flow(side.event, side.flow(0), 0)

    def test_profiler_sees_identical_stacks(self):
        folded = {}
        for mode in MODES:
            side = _Side(mode)
            profiler = CpuProfiler()
            profiler.attach([side.kernel])
            side.install()
            side.install(guard=lambda key: key != 1)
            for key in (0, 1, 2, 3, 0, 1, 2, 3):
                side.send(key)
            folded[mode] = profiler.folded_text()
        assert folded["compiled"] == folded["linear"]
        assert "Gen.Packet" in folded["compiled"]

    def test_metrics_snapshot_identical_modulo_flowcache(self):
        snapshots = {}
        for mode in MODES:
            side = _Side(mode)
            side.install()
            side.install(guard=lambda key: key % 2 == 0)
            for key in (0, 1, 2, 0, 1, 2):
                side.send(key)
            registry = MetricsRegistry()
            side.dispatcher.register_metrics(registry)
            side.kernel.cpu.register_metrics(registry)
            snapshots[mode] = registry.snapshot()

        # The flow-cache counters legitimately differ across rungs (that
        # is what they measure); everything else must not.
        def scrub(snapshot):
            return {name: entry for name, entry in snapshot.items()
                    if not name.startswith("spin.flowcache.")}
        assert scrub(snapshots["compiled"]) == scrub(snapshots["linear"])


    def test_dispatcher_failure_totals(self):
        """``spin.dispatcher.failures`` / ``terminations`` count what the
        handles count -- interpreted scan, generated plan and scan, and
        thread delegation alike -- and keep the counts of handles that
        are gone."""
        def scenario(side):
            def boom(*args):
                raise RuntimeError("handler blew up")

            def hog(*args):
                side.kernel.cpu.charge(50.0, "handler")
            side.install(handler=boom)
            side.install(handler=hog, time_limit=10.0)
            side.install(handler=boom, mode="thread")
            for _ in range(4):  # seen, compiled, replayed twice
                side.send(0)
            side.send_flowless(0)
            side.run(side.handles[0].uninstall)
            side.send(0)
        sides = _both_rungs(scenario)
        assert sides[0].dispatcher.flow_cache.compiled_replays == 2
        for side in sides:
            assert side.dispatcher.total_failures == 11
            assert side.dispatcher.total_terminations == 6
            registry = MetricsRegistry()
            side.dispatcher.register_metrics(registry)
            snapshot = registry.snapshot()
            assert snapshot["spin.dispatcher.failures"]["value"] == 11
            assert snapshot["spin.dispatcher.terminations"]["value"] == 6


# ---------------------------------------------------------------------------
# compile on repeat: a plan is compiled at a flow's second cold raise
# ---------------------------------------------------------------------------

class TestCompileOnRepeat:
    def _side(self):
        side = _Side("compiled")
        side.install()
        side.install(guard=lambda key: key % 2 == 0)
        return side

    def test_one_raise_per_flow_compiles_no_plan(self):
        side = self._side()
        for key in range(8):
            side.send(key)
        cache = side.dispatcher.flow_cache
        assert cache.compiled_plans == 0
        assert cache.misses == 8 and cache.hits == 0
        assert all(flow.plans == {} for flow in side.flows.values())

    def test_second_raise_compiles_and_third_replays(self):
        side = self._side()
        cache = side.dispatcher.flow_cache
        side.send(0)
        assert cache.compiled_plans == 0
        side.send(0)
        assert cache.compiled_plans == 1
        assert (side.flows[0].plans[side.event].snapshot
                is side.event._snapshot)
        assert cache.misses == 2 and cache.hits == 0
        side.send(0)
        assert cache.compiled_plans == 1
        assert cache.hits == 1 and cache.compiled_replays == 1

    @pytest.mark.parametrize("bump", ["install", "uninstall", "invalidate"])
    def test_bump_between_the_raises_compiles_nothing(self, bump):
        side = self._side()
        side.send(0)
        if bump == "install":
            side.install()
        elif bump == "uninstall":
            side.run(side.handles[0].uninstall)
        else:
            side.dispatcher.invalidate_event(side.event)
        side.send(0)  # a first sighting again, at the new snapshot
        cache = side.dispatcher.flow_cache
        assert cache.compiled_plans == 0 and side.flows[0].plans == {}
        side.send(0)
        assert cache.compiled_plans == 1


# ---------------------------------------------------------------------------
# shape sharing and the step cap
# ---------------------------------------------------------------------------

class TestShapeCache:
    def test_same_shape_shares_code_object(self):
        side = _Side("compiled")
        side.install()
        side.install(guard=lambda key: True)
        for key in ("a", "a", "b", "b"):  # a plan compiles on the repeat
            side.send(key)
        plan_a = side.flows["a"].plans[side.event]
        plan_b = side.flows["b"].plans[side.event]
        assert plan_a.fn is not plan_b.fn  # distinct bound factories...
        assert plan_a.fn.__code__ is plan_b.fn.__code__  # ...one code object
        assert side.dispatcher.flow_cache.compiled_shape_hits >= 1

    def test_shape_cache_is_process_wide(self):
        before = shape_cache_size()
        side = _Side("compiled")
        side.install()
        side.send(0)
        assert shape_cache_size() >= before  # grows at most per new shape

    def test_step_cap_records_no_plan(self):
        def scenario(side):
            for _ in range(MAX_COMPILED_STEPS + 1):
                side.install()
            side.send(0)  # raise_flow on the compiled side
            side.send(0)
            side.send_flowless(0)  # raise_event on both
            side.send_flowless(0)
        # Log, charged us, category_times and per-handle stats all equal
        # the oracle side's: past the cap the compiled side *is* the scan.
        compiled_side = _both_rungs(scenario)[0]
        assert compiled_side.flows[0].plans == {}
        assert compiled_side.event._scan is None
        cache = compiled_side.dispatcher.flow_cache
        assert not any(value for name, value in _published(cache).items()
                       if name != "spin.flowcache.enabled")


# ---------------------------------------------------------------------------
# generations: eviction/re-admission must never resurrect a stale plan
# ---------------------------------------------------------------------------

class TestGenerationHygiene:
    def test_epochs_never_recur(self, kernel):
        """Uninstall/reinstall may not restore an old generation value."""
        event = kernel.dispatcher.declare("Epoch.Evt")
        seen = set()
        for _ in range(5):
            handle = kernel.dispatcher.install(event, lambda *a: None)
            assert event.generation not in seen
            seen.add(event.generation)
            handle.uninstall()
            assert event.generation not in seen
            seen.add(event.generation)

    def test_epochs_shared_across_events(self, kernel):
        a = kernel.dispatcher.declare("Epoch.A")
        b = kernel.dispatcher.declare("Epoch.B")
        kernel.dispatcher.install(a, lambda *x: None)
        kernel.dispatcher.install(b, lambda *x: None)
        assert a.generation != b.generation

    def test_forged_generation_cannot_resurrect_stale_plan(self):
        """Regression: plan validity is snapshot identity, so even a plan
        whose recorded generation coincides with the event's current one
        (the failure mode of a wrapped or reset counter) must not replay.
        """
        side = _Side("compiled")
        hits = []
        side.install(handler=lambda *a: hits.append("old"))
        side.send(0)
        side.send(0)  # the repeat compiles the plan
        stale_plan = side.flows[0].plans[side.event]
        assert stale_plan.snapshot is side.event._snapshot

        # The entry (and its plan) stays held across the uninstall --
        # an in-flight packet header keeps FlowEntry objects alive even
        # after cache eviction.
        side.run(side.handles[0].uninstall)
        side.install(handler=lambda *a: hits.append("new"))

        # Forge the counter coincidence a non-monotonic generation could
        # produce.  Identity validation must shrug it off.
        stale_plan.generation = side.event.generation
        assert side.flows[0].plans[side.event] is stale_plan
        invalidations_before = side.dispatcher.flow_cache.invalidations
        side.send(0)
        assert hits == ["old", "old", "new"]  # the *new* handler ran
        assert (side.dispatcher.flow_cache.invalidations
                == invalidations_before + 1)
        # The repeat at the live snapshot replaces the stale plan.
        side.send(0)
        assert (side.dispatcher.flow_cache.invalidations
                == invalidations_before + 2)
        assert side.flows[0].plans[side.event] is not stale_plan
        assert side.flows[0].plans[side.event].snapshot is side.event._snapshot


# ---------------------------------------------------------------------------
# obs: the compiled-path metric requirement
# ---------------------------------------------------------------------------

class TestCompiledPathRequirement:
    SNAPSHOT_ON = {
        "spin.flowcache.compiled.replays": {"type": "gauge", "value": 7},
        "spin.flowcache.compiled.scan_raises": {"type": "gauge", "value": 0},
    }
    SNAPSHOT_OFF = {
        "spin.flowcache.compiled.replays": {"type": "gauge", "value": 0},
        "spin.flowcache.compiled.scan_raises": {"type": "gauge", "value": 0},
    }

    def test_satisfied_by_nonzero_metric(self):
        missing = _missing_categories(
            ["dispatch", "compiled-path"], {"dispatch": 1.0}, self.SNAPSHOT_ON)
        assert missing == []

    def test_zero_valued_snapshot_entries_do_not_satisfy(self):
        # Snapshot values are {"type", "value"} dicts -- always truthy --
        # so the requirement must unwrap them, not bool() them.
        missing = _missing_categories(
            ["compiled-path"], {"dispatch": 1.0}, self.SNAPSHOT_OFF)
        assert missing == ["compiled-path"]

    def test_absent_metrics_do_not_satisfy(self):
        assert _missing_categories(["compiled-path"], {}, {}) == \
            ["compiled-path"]
        assert _missing_categories(["compiled-path"], {}, None) == \
            ["compiled-path"]


# ---------------------------------------------------------------------------
# chaos: oracle campaigns check the full ladder
# ---------------------------------------------------------------------------

class TestChaosLadder:
    def _spec(self):
        from repro.chaos import CampaignSpec
        from repro.hw.link import ImpairmentConfig
        return CampaignSpec(
            name="ladder", seed=977, os_name="spin", device="ethernet",
            workload="tcp_bulk", scale=8_192, duration_us=2_000_000.0,
            config=ImpairmentConfig(loss_good=0.02, duplicate_rate=0.02),
            oracle=True)

    def test_oracle_campaign_checks_both_rungs(self, monkeypatch):
        from repro.chaos import run_campaign
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        verdict = run_campaign(self._spec())
        assert verdict["passed"], verdict["violations"]
        assert not any("diverges" in v for v in verdict["violations"])
