"""Generated delivery paths (codegen): the two-rung bit-exactness ladder.

The dispatcher serves event raises two ways -- a generated Python scan
per handler snapshot (default) and the interpreted linear scan
(``REPRO_FLOW_CACHE=0``, the reference oracle) -- and the contract is
that the two are *observably identical*: same handlers in the same
order, same per-handle statistics, bit-identical simulated time and
category accounting, identical profiler stacks.  These tests drive the
corner cases directly (thread delegation, time limits, guard exceptions,
mid-raise uninstalls), plus the machinery around the ladder: shape
sharing, the counters the generated source moves, and the obs
``compiled-path`` metric requirement.
"""

import re

import pytest

from repro.hw.cpu import ChargeError
from repro.obs.__main__ import _missing_categories
from repro.obs.profiler import CpuProfiler
from repro.obs.registry import MetricsRegistry
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.core import filters
from repro.spin.codegen import _emit_source, handle_atom

MODES = ("compiled", "linear")


class _Side:
    """One kernel driven through a scenario under one ladder rung.

    ``compiled`` raises through generated scans; ``linear`` has them
    turned off, as a ``REPRO_FLOW_CACHE=0`` run does.
    ``dispatcher.compiled`` is forced per side so the tests are
    independent of the process environment.
    """

    def __init__(self, mode: str):
        assert mode in MODES
        self.mode = mode
        self.engine = Engine()
        # One shared kernel name: profiler folded stacks lead with it,
        # and the parity test compares them byte-for-byte across modes.
        self.kernel = SpinKernel(self.engine, "gen-kernel")
        self.dispatcher = self.kernel.dispatcher
        self.dispatcher.compiled = (mode == "compiled")
        self.event = self.dispatcher.declare("Gen.Packet")
        self.handles = []
        self.log = []

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
        self.run(lambda: self.dispatcher.raise_event(self.event, key))


def _assert_equivalent(sides):
    """Every observable except the compile count must agree."""
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


def _both_rungs(scenario):
    """Run ``scenario(side)`` on both rungs and cross-check."""
    sides = [_Side(mode) for mode in MODES]
    for side in sides:
        scenario(side)
    _assert_equivalent(sides)
    # The oracle side really did stay interpreted.
    assert sides[1].dispatcher.compiled_scans == 0
    assert sides[1].event._scan is None
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
        # The first raise after the last install compiled the scan, and
        # all twelve ran it.
        assert sides[0].dispatcher.compiled_scans == 1
        assert sides[0].dispatcher.total_raises == 12

    def test_flowless_scan_matches_interpreter(self):
        def scenario(side):
            side.install()
            side.install(guard=lambda value: value % 2 == 0)
            for value in range(6):
                side.send(value)
        compiled = _both_rungs(scenario)[0]
        # One scan compiled after the last install served all six raises.
        assert compiled.dispatcher.compiled_scans == 1
        assert compiled.event._scan is not None
        assert compiled.dispatcher.total_raises == 6

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
        # Failure accounting re-runs per packet: the generated scan
        # keeps no verdict, it calls the guard on every raise.
        assert sides[0].dispatcher.compiled_scans == 1

    def test_generated_scan_contains_guard_exceptions(self):
        def scenario(side):
            def bad_guard(value):
                raise ValueError("guard blew up")
            side.install(guard=bad_guard)
            side.install()
            for value in range(3):
                side.send(value)
        sides = _both_rungs(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[1].invocations == 3
        assert sides[0].dispatcher.compiled_scans == 1
        assert sides[0].event._scan is not None

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
            side.send(0)
            side.send(1)
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
            # Send 3 runs generated code on the compiled rung; the
            # uninstall lands before the victim's step, so it saw sends 1
            # and 2 only and never runs again.
            assert side.handles[1].invocations == 2
            assert not side.handles[1].installed

    def test_raise_outside_kernel_context_raises_everywhere(self):
        for mode in MODES:
            side = _Side(mode)
            side.install(guard=lambda key: True)
            side.send(0)  # warm: the compiled rung compiles its scan
            with pytest.raises(ChargeError):
                side.dispatcher.raise_event(side.event, 0)

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

        # The compile count legitimately differs across rungs (that is
        # what it measures); everything else must not.
        def scrub(snapshot):
            return {name: entry for name, entry in snapshot.items()
                    if name != "spin.dispatcher.compiled_scans"}
        assert scrub(snapshots["compiled"]) == scrub(snapshots["linear"])


    def test_dispatcher_failure_totals(self):
        """``spin.dispatcher.failures`` / ``terminations`` count what the
        handles count -- interpreted and generated scans, and thread
        delegation alike -- and keep the counts of handles that are
        gone."""
        def scenario(side):
            def boom(*args):
                raise RuntimeError("handler blew up")

            def hog(*args):
                side.kernel.cpu.charge(50.0, "handler")
            side.install(handler=boom)
            side.install(handler=hog, time_limit=10.0)
            side.install(handler=boom, mode="thread")
            for _ in range(4):
                side.send(0)
            side.send(0)
            side.run(side.handles[0].uninstall)
            side.send(0)
        sides = _both_rungs(scenario)
        # One scan before the uninstall, one after it.
        assert sides[0].dispatcher.compiled_scans == 2
        for side in sides:
            assert side.dispatcher.total_failures == 11
            assert side.dispatcher.total_terminations == 6
            registry = MetricsRegistry()
            side.dispatcher.register_metrics(registry)
            snapshot = registry.snapshot()
            assert snapshot["spin.dispatcher.failures"]["value"] == 11
            assert snapshot["spin.dispatcher.terminations"]["value"] == 6


# ---------------------------------------------------------------------------
# shape sharing, and the counters the generated source moves
# ---------------------------------------------------------------------------

class TestShapeCache:
    def test_same_shape_shares_code_object(self):
        side = _Side("compiled")
        other = side.dispatcher.declare("Gen.Other")
        for event in (side.event, other):
            side.dispatcher.install(event, side.log.append)
            side.dispatcher.install(event, side.log.append,
                                    guard=lambda key: True)
            side.run(lambda: side.dispatcher.raise_event(event, "a"))
        assert side.event._scan is not other._scan  # distinct bindings...
        assert side.event._scan.__code__ is other._scan.__code__  # ...one code

    def test_shape_cache_is_process_wide(self):
        """Two dispatchers compiling one shape share its code object."""
        scans = []
        for _ in range(2):
            side = _Side("compiled")
            side.install()
            side.send(0)
            scans.append(side.event._scan)
        assert scans[0] is not scans[1]
        assert scans[0].__code__ is scans[1].__code__

    def test_wide_event_compiles(self):
        """An event with 64 handlers is served by generated code like any
        other, and matches the oracle side."""
        def scenario(side):
            for slot in range(64):
                side.install(guard=(lambda key: key == 0) if slot % 2 else None)
            for _ in range(3):
                side.send(0)
                side.send(1)
        compiled = _both_rungs(scenario)[0]
        assert compiled.dispatcher.compiled_scans == 1
        assert compiled.event._scan is not None

    @pytest.mark.parametrize("atoms", [
        (),
        tuple((kind, None) for kind in ("I", "Ig", "Il", "Igl", "T", "Tg")),
        tuple(handle_atom(mode, guard, limit)[0] for mode, guard, limit in (
            ("inline", filters.ethertype_guard(0x0800), None),
            ("inline", filters.ip_protocol_guard(17), 5.0),
            ("thread", filters.udp_dst_port_guard(7), None),
            ("inline", filters.tcp_standard_guard(set(), set()), None),
            ("inline", filters.transport_redirect_guard(6, 80), None))),
    ], ids=["empty", "opaque-guards", "data-guards"])
    def test_source_counts_only_what_the_scan_counts(self, atoms):
        """Per raise, generated code increments ``total_raises`` and
        nothing else; per step, only the handle's statistics and the
        dispatcher totals the interpreted scan moves."""
        source = _emit_source(atoms)
        increments = re.findall(r"(\S+) \+= 1$", source, re.MULTILINE)
        per_step = {"matched", "_dispatcher.total_invocations",
                    "_dispatcher.total_failures",
                    "_dispatcher.total_terminations"}
        per_raise = [name for name in increments
                     if name not in per_step
                     and not re.match(r"_h\d+\.(invocations|failures|"
                                      r"guard_rejections|terminations)$",
                                      name)]
        assert per_raise == ["_dispatcher.total_raises"]
        assert "_cache" not in source and "_event" not in source


# ---------------------------------------------------------------------------
# obs: the compiled-path metric requirement
# ---------------------------------------------------------------------------

class TestCompiledPathRequirement:
    SNAPSHOT_ON = {
        "spin.dispatcher.raises": {"type": "gauge", "value": 7},
        "spin.dispatcher.compiled_scans": {"type": "gauge", "value": 2},
    }
    SNAPSHOT_OFF = {
        "spin.dispatcher.raises": {"type": "gauge", "value": 7},
        "spin.dispatcher.compiled_scans": {"type": "gauge", "value": 0},
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
