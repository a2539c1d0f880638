"""Tests for the CPU model and the charge/consume discipline."""

import pytest
from hypothesis import example, given, strategies as st

from repro.hw import ALPHA_21064, CPU, ChargeError, INTERRUPT_PRIORITY, THREAD_PRIORITY
from repro.hw.cpu import CategoryTimes
from repro.hw.host import Host
from repro.obs.taps import Observer


class EchoHost(Host):
    def frame_arrived(self, arrival):
        pass


def charging(host, amount, result=None):
    """Plain kernel code that charges ``amount`` us and returns ``result``."""
    def work():
        host.cpu.charge(amount)
        return result
    return work


@pytest.fixture
def cpu(engine):
    return CPU(engine)


@pytest.fixture
def host(engine):
    return EchoHost(engine, "h")


class TestAccumulator:
    def test_begin_charge_end(self, cpu):
        marker = cpu.begin()
        cpu.charge(10.0)
        cpu.charge(5.0, "driver")
        assert cpu.end(marker) == 15.0

    def test_charge_without_begin_rejected(self, cpu):
        with pytest.raises(ChargeError):
            cpu.charge(1.0)

    def test_negative_charge_rejected(self, cpu):
        cpu.begin()
        with pytest.raises(ValueError):
            cpu.charge(-1.0)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_non_finite_charge_rejected(self, cpu, amount):
        """NaN passed the ``< 0`` test, and an infinite charge would hold
        the CPU for ever; both are rejected, inside a path or not, and
        nothing is booked."""
        marker = cpu.begin()
        with pytest.raises(ValueError, match="non-finite"):
            cpu.charge(amount)
        with pytest.raises(ValueError, match="non-finite"):
            cpu.try_charge(amount)
        assert cpu.end(marker) == 0.0 and cpu.category_times == {}
        with pytest.raises(ValueError, match="non-finite"):
            cpu.try_charge(amount)
        assert cpu.uncontexted_charges == 0
        assert cpu.uncontexted_charge_us == 0.0

    def test_nested_accumulators_are_independent(self, cpu):
        outer = cpu.begin()
        cpu.charge(10.0)
        inner = cpu.begin()
        cpu.charge(3.0)
        assert cpu.end(inner) == 3.0
        assert cpu.end(outer) == 10.0

    def test_mismatched_end_rejected(self, cpu):
        outer = cpu.begin()
        cpu.begin()
        with pytest.raises(ChargeError):
            cpu.end(outer)

    def test_category_accounting(self, cpu):
        cpu.begin()
        cpu.charge(10.0, "driver")
        cpu.charge(5.0, "driver")
        cpu.charge(2.0, "protocol")
        assert cpu.category_times == {"driver": 15.0, "protocol": 2.0}


_CHARGES = st.lists(st.tuples(st.sampled_from(["driver", "protocol", "dispatch", "copy"]),
                              st.floats(min_value=0.0, allow_nan=False)))


class TestCategoryTimes:
    @given(_CHARGES)
    @example([("driver", 0.0), ("driver", 5e-324), ("protocol", 5e-324), ("driver", 1.5)])
    def test_a_plain_add_books_what_the_keyerror_fallback_did(self, charges):
        """``times[k] += a`` leaves the keys, their order and every bit of
        every value as the ``try: += / except KeyError: =`` form did."""
        times = CategoryTimes()
        reference = {}
        for category, amount in charges:
            times[category] += amount
            try:
                reference[category] += amount
            except KeyError:
                reference[category] = amount
        assert list(times) == list(reference)
        assert [value.hex() for value in times.values()] == [
            value.hex() for value in reference.values()]

    @given(_CHARGES)
    def test_an_uncharged_category_reads_zero_and_is_not_inserted(self, charges):
        times = CategoryTimes()
        for category, amount in charges:
            times[category] += amount
        before = list(times.items())
        value = times["never-charged"]
        assert value == 0.0 and value.hex() == (0.0).hex()
        assert list(times.items()) == before and "never-charged" not in times


class TestConsume:
    """``Host.kernel_path`` holds the CPU for whatever its body charged."""

    def test_consume_advances_time_and_busy(self, engine, host):
        engine.run_process(host.kernel_path(charging(host, 40.0)))
        assert engine.now == 40.0
        assert host.cpu.busy_time == 40.0

    def test_zero_consume_is_noop(self, engine, host):
        assert engine.run_process(
            host.kernel_path(charging(host, 0.0, "ok"))) == "ok"
        assert engine.now == 0.0
        assert engine.events_processed == 1   # the process bootstrap only

    def test_consumers_serialize(self, engine, host):
        finish = []

        def worker(tag):
            yield from host.kernel_path(charging(host, 10.0))
            finish.append((tag, engine.now))
        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        assert finish == [("a", 10.0), ("b", 20.0)]

    def test_interrupt_priority_served_first(self, engine, host):
        order = []

        def holder():
            yield from host.kernel_path(charging(host, 10.0))
            order.append("holder")

        def thread():
            yield from host.kernel_path(charging(host, 5.0), (),
                                        THREAD_PRIORITY)
            order.append("thread")

        def interrupt():
            yield engine.timeout(1.0)
            yield from host.kernel_path(charging(host, 5.0), (),
                                        INTERRUPT_PRIORITY)
            order.append("interrupt")
        engine.process(holder())
        engine.process(thread())
        engine.process(interrupt())
        engine.run()
        assert order == ["holder", "interrupt", "thread"]

    def test_execute_runs_fn_and_consumes(self, engine, host):
        def work(x):
            host.cpu.charge(25.0)
            return x * 2

        def proc():
            result = yield from host.kernel_path(work, (21,))
            return result
        assert engine.run_process(proc()) == 42
        assert engine.now == 25.0


class TestUtilization:
    def test_utilization_since(self, engine, host):
        def proc():
            yield from host.kernel_path(charging(host, 30.0))
            yield engine.timeout(70.0)
        sample = host.cpu.sample()
        engine.run_process(proc())
        assert host.cpu.utilization_since(*sample) == pytest.approx(0.3)

    def test_utilization_zero_window(self, cpu):
        sample = cpu.sample()
        assert cpu.utilization_since(*sample) == 0.0


class TestKernelPath:
    def test_acquires_cpu_before_running(self, engine, host):
        """Causality: plain work waits for the CPU under contention."""
        order = []

        def hog():
            yield from host.kernel_path(charging(host, 50.0))

        def path_fn():
            order.append(engine.now)
        engine.process(hog())

        def runner():
            yield from host.kernel_path(path_fn)
        engine.run_process(runner())
        assert order == [50.0]  # ran only after the hog released the CPU

    def test_deferred_actions_after_hold(self, engine, host):
        times = []

        def work():
            host.cpu.charge(20.0)
            host.defer(lambda: times.append(engine.now))

        def runner():
            yield from host.kernel_path(work)
        engine.run_process(runner())
        assert times == [20.0]

    def test_exception_still_pops_accumulator(self, engine, host):
        def broken():
            host.cpu.charge(5.0)
            raise ValueError("bug")

        def runner():
            yield from host.kernel_path(broken)
        with pytest.raises(ValueError):
            engine.run_process(runner())
        assert host.cpu.begin() == 1     # the failed path's was popped

    def test_a_path_started_inside_an_open_accumulator_is_a_charge_error(
            self, host):
        """The accumulator stack is empty whenever a path starts, so the
        path's own accumulator is the only one left when ``fn`` returns.
        (A path started inside one used to nest in it silently.)"""
        ran = []
        marker = host.cpu.begin()
        with pytest.raises(ChargeError, match="open accumulator"):
            next(host.kernel_path(lambda: ran.append(1)))
        assert ran == [] and not host.cpu.held
        assert host.cpu.end(marker) == 0.0

    def test_a_path_that_leaves_an_accumulator_open_holds_for_it(
            self, engine, host):
        """``fn`` charges and opens an accumulator it never ends: the path
        holds for everything left on the stack, empties it and fails.
        (The stack used to keep ``[5.0, 0.0]``: the 5 us were booked but
        never held, and every later charge outside a path landed in the
        stale accumulator instead of raising or being counted.)"""
        cpu = host.cpu

        def leaky():
            cpu.charge(5.0)
            cpu.begin()

        def proc():
            with pytest.raises(ChargeError):
                yield from host.kernel_path(leaky)
            yield from host.kernel_path(charging(host, 2.0))
            return engine.now
        assert engine.run_process(proc()) == 7.0
        assert cpu._stack == [] and not cpu.held
        assert cpu.busy_time == sum(cpu.category_times.values()) == 7.0
        assert cpu.try_charge(3.0) is False
        assert cpu.uncontexted_charges == 1
        with pytest.raises(ChargeError):
            cpu.charge(1.0)

    def test_a_path_that_pops_its_own_accumulator_fails_like_any_other(
            self, engine, host):
        """``fn`` ends the path's accumulator itself: nothing is left to
        hold, and the path fails as an ordinary failed path does -- its
        deferred actions are flushed before the exception reaches the
        waiter.  (They used to stay on the host, for whichever path
        flushed next.)"""
        cpu = host.cpu
        flushed = []

        def popper():
            host.defer(lambda: flushed.append(engine.now))
            cpu.charge(5.0)
            return cpu.end(1)

        def proc():
            with pytest.raises(ChargeError):
                yield from host.kernel_path(popper)
            assert flushed == [0.0] and host._deferred == []
            yield from host.kernel_path(charging(host, 2.0))
            return engine.now
        assert engine.run_process(proc()) == 2.0
        assert cpu._stack == [] and not cpu.held and cpu.busy_time == 2.0

    def test_an_observer_whose_on_pop_raises_fails_an_ordinary_path(
            self, engine, host):
        """The accumulator comes off before the profile frame: an
        observer's ``on_pop`` that raises fails the path like ``fn``
        raising would -- it holds for its charge, frees the CPU, and the
        observer's exception reaches the waiter.  (The path used to die
        on its unbound charge with the CPU held forever and ``[5.0]``
        left on the accumulator stack.)"""
        class RaisingOnPop(Observer):
            def on_pop(self, hook, label, charged_us):
                raise RuntimeError("observer bug")
        observer = RaisingOnPop().attach([host])

        def proc():
            with pytest.raises(RuntimeError, match="observer bug"):
                yield from host.kernel_path(charging(host, 5.0))
            observer.detach()
            yield from host.kernel_path(charging(host, 2.0))
            return engine.now
        assert engine.run_process(proc()) == 7.0
        assert host.cpu._stack == [] and not host.cpu.held
        assert host.cpu.busy_time == 7.0

    def test_timer_fires_as_kernel_path(self, engine, host):
        fired = []
        host.set_timer(100.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [100.0]

    def test_timer_cancel(self, engine, host):
        fired = []
        timer = host.set_timer(100.0, lambda: fired.append(1))
        timer.cancel()
        engine.run()
        assert fired == []
        assert not timer.fired

    def test_timer_body_failure_leaves_engine_run(self, engine, host):
        """A timer body that raises is a kernel bug, like any spawned
        kernel path: it surfaces instead of dying in a process nobody
        waits on with the CPU still held."""
        def boom():
            raise RuntimeError("timer bug")
        host.set_timer(10.0, boom)
        with pytest.raises(RuntimeError, match="timer bug"):
            engine.run()
        assert engine.now == 10.0

    def test_scaled_cost_table(self):
        slower = ALPHA_21064.scaled(2.0)
        assert slower.context_switch == ALPHA_21064.context_switch * 2
