"""Tests for the SPIN event dispatcher (paper section 2)."""

import pytest

from repro.spin import DispatchError


@pytest.fixture
def dispatcher(kernel):
    return kernel.dispatcher


def charged(kernel, fn):
    """Run plain fn under an accumulator; return (result, charged us)."""
    marker = kernel.cpu.begin()
    result = fn()
    return result, kernel.cpu.end(marker)


class TestDeclare:
    def test_declare_returns_same_event(self, dispatcher):
        assert dispatcher.declare("X.Recv") is dispatcher.declare("X.Recv")

    def test_distinct_names_distinct_events(self, dispatcher):
        assert dispatcher.declare("A.Recv") is not dispatcher.declare("B.Recv")


class TestInstallAndRaise:
    def test_handler_invoked_with_args(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        seen = []
        dispatcher.install(event, lambda a, b: seen.append((a, b)))
        matched, _cost = charged(
            kernel, lambda: dispatcher.raise_event(event, 1, 2))
        assert matched == 1
        assert seen == [(1, 2)]

    def test_multiple_handlers_all_fire(self, kernel, dispatcher):
        """'More than one handler may be installed on an event.'"""
        event = dispatcher.declare("X")
        seen = []
        for tag in "abc":
            dispatcher.install(event, lambda tag=tag: seen.append(tag))
        matched, _ = charged(kernel, lambda: dispatcher.raise_event(event))
        assert matched == 3
        assert seen == ["a", "b", "c"]

    def test_guard_filters(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        seen = []
        dispatcher.install(event, lambda v: seen.append(("even", v)),
                           guard=lambda v: v % 2 == 0)
        dispatcher.install(event, lambda v: seen.append(("odd", v)),
                           guard=lambda v: v % 2 == 1)
        charged(kernel, lambda: dispatcher.raise_event(event, 4))
        charged(kernel, lambda: dispatcher.raise_event(event, 7))
        assert seen == [("even", 4), ("odd", 7)]

    def test_guard_rejections_counted(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        handle = dispatcher.install(event, lambda v: None,
                                    guard=lambda v: False)
        charged(kernel, lambda: dispatcher.raise_event(event, 1))
        assert handle.guard_rejections == 1
        assert handle.invocations == 0

    def test_raise_requires_event_capability(self, kernel, dispatcher):
        for bad_raise in (
                lambda: dispatcher.raise_event("X.Recv"),
                lambda: dispatcher.raise_flow("X.Recv", None)):
            with pytest.raises(DispatchError, match="EventDecl capability"):
                charged(kernel, bad_raise)

    def test_install_requires_event_capability(self, dispatcher):
        with pytest.raises(DispatchError):
            dispatcher.install("X.Recv", lambda: None)

    def test_invalid_mode_rejected(self, dispatcher):
        event = dispatcher.declare("X")
        with pytest.raises(DispatchError):
            dispatcher.install(event, lambda: None, mode="fiber")

    def test_invalid_time_limit_rejected(self, dispatcher):
        event = dispatcher.declare("X")
        with pytest.raises(DispatchError):
            dispatcher.install(event, lambda: None, time_limit=0)


class TestUninstall:
    def test_uninstalled_handler_stops_firing(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        seen = []
        handle = dispatcher.install(event, lambda: seen.append(1))
        charged(kernel, lambda: dispatcher.raise_event(event))
        handle.uninstall()
        charged(kernel, lambda: dispatcher.raise_event(event))
        assert seen == [1]

    def test_double_uninstall_rejected(self, dispatcher):
        event = dispatcher.declare("X")
        handle = dispatcher.install(event, lambda: None)
        handle.uninstall()
        with pytest.raises(DispatchError):
            handle.uninstall()

    def test_uninstall_during_raise_is_safe(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        handles = []

        def self_removing():
            handles[0].uninstall()
        handles.append(dispatcher.install(event, self_removing))
        seen = []
        dispatcher.install(event, lambda: seen.append("other"))
        charged(kernel, lambda: dispatcher.raise_event(event))
        assert seen == ["other"]


class TestCosts:
    def test_per_handler_cost_charged(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        for _ in range(4):
            dispatcher.install(event, lambda: None)
        _, cost = charged(kernel, lambda: dispatcher.raise_event(event))
        assert cost == pytest.approx(4 * kernel.costs.dispatch_per_handler)

    def test_guard_eval_cost_charged(self, kernel, dispatcher):
        event = dispatcher.declare("X")
        dispatcher.install(event, lambda: None, guard=lambda: False)
        _, cost = charged(kernel, lambda: dispatcher.raise_event(event))
        assert cost == pytest.approx(kernel.costs.guard_eval)

    def test_handler_internal_charges_flow_up(self, kernel, dispatcher):
        event = dispatcher.declare("X")

        def worker():
            kernel.cpu.charge(50.0, "handler-work")
        dispatcher.install(event, worker)
        _, cost = charged(kernel, lambda: dispatcher.raise_event(event))
        assert cost == pytest.approx(50.0 + kernel.costs.dispatch_per_handler)


class TestTimeLimits:
    def test_over_budget_handler_terminated(self, kernel, dispatcher):
        """Paper sec. 3.3: exceeding the allotment terminates the handler
        and only the allotment is consumed."""
        event = dispatcher.declare("X")

        def hog():
            kernel.cpu.charge(500.0, "hog")
        handle = dispatcher.install(event, hog, time_limit=30.0)
        _, cost = charged(kernel, lambda: dispatcher.raise_event(event))
        assert handle.terminations == 1
        assert cost == pytest.approx(30.0 + kernel.costs.dispatch_per_handler)

    def test_within_budget_not_terminated(self, kernel, dispatcher):
        event = dispatcher.declare("X")

        def modest():
            kernel.cpu.charge(10.0, "ok")
        handle = dispatcher.install(event, modest, time_limit=30.0)
        charged(kernel, lambda: dispatcher.raise_event(event))
        assert handle.terminations == 0

    def test_thread_mode_time_limit_rejected(self, dispatcher):
        """The paper bounds only interrupt-level EPHEMERAL execution (sec.
        3.3); a thread-mode limit nothing would enforce is refused."""
        event = dispatcher.declare("X")
        with pytest.raises(DispatchError, match="inline"):
            dispatcher.install(event, lambda: None, mode="thread",
                               time_limit=5.0)
        assert event.handlers == []

    @pytest.mark.parametrize("limit", [float("nan"), float("inf")])
    def test_non_finite_time_limit_rejected(self, dispatcher, limit):
        """No charge exceeds a NaN or an infinite allotment: either would
        switch the sec. 3.3 bound off, so both are refused."""
        event = dispatcher.declare("X")
        with pytest.raises(DispatchError, match="finite"):
            dispatcher.install(event, lambda: None, time_limit=limit)
        assert event.handlers == []


class TestContainment:
    def test_handler_exception_contained(self, kernel, dispatcher):
        """An extension failure must not take down the kernel."""
        event = dispatcher.declare("X")

        def broken():
            raise RuntimeError("extension bug")
        handle = dispatcher.install(event, broken)
        seen = []
        dispatcher.install(event, lambda: seen.append("survivor"))
        matched, _ = charged(kernel, lambda: dispatcher.raise_event(event))
        assert matched == 2
        assert seen == ["survivor"]
        assert handle.failures == 1
        assert isinstance(handle.last_error, RuntimeError)

    def test_guard_exception_treated_as_no_match(self, kernel, dispatcher):
        event = dispatcher.declare("X")

        def bad_guard():
            raise ValueError("guard bug")
        handle = dispatcher.install(event, lambda: None, guard=bad_guard)
        matched, _ = charged(kernel, lambda: dispatcher.raise_event(event))
        assert matched == 0
        assert handle.failures == 1


class TestThreadMode:
    def test_thread_handler_runs_in_new_thread(self, kernel, engine):
        dispatcher = kernel.dispatcher
        event = dispatcher.declare("X")
        ran_at = []

        def handler():
            ran_at.append(engine.now)
            kernel.cpu.charge(10.0, "work")
        dispatcher.install(event, handler, mode="thread")

        def raiser():
            yield from kernel.kernel_path(
                lambda: dispatcher.raise_event(event))
            return engine.now
        raised_at = engine.run_process(raiser())
        engine.run()
        # The handler ran after the raising path completed.
        assert ran_at and ran_at[0] >= raised_at

    def test_thread_mode_charges_spawn(self, kernel, engine):
        dispatcher = kernel.dispatcher
        event = dispatcher.declare("X")
        dispatcher.install(event, lambda: None, mode="thread")
        marker = kernel.cpu.begin()
        dispatcher.raise_event(event)
        cost = kernel.cpu.end(marker)
        kernel.take_deferred()  # discard the spawn action
        expected = (kernel.costs.dispatch_per_handler +
                    kernel.costs.thread_spawn + kernel.costs.process_wakeup)
        assert cost == pytest.approx(expected)
