"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Process, SimulationError


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(25.0)
        engine.run()
        assert engine.now == 25.0

    def test_run_until_stops_exactly(self, engine):
        engine.timeout(100.0)
        engine.run(until=40.0)
        assert engine.now == 40.0

    def test_run_until_past_leaves_clock_at_until(self, engine):
        engine.timeout(10.0)
        engine.run(until=50.0)
        assert engine.now == 50.0

    def test_run_until_backwards_rejected(self, engine):
        engine.timeout(10.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=5.0)

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1.0)

    def test_step_with_empty_heap_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.step()


class TestEvent:
    def test_succeed_delivers_value(self, engine):
        event = engine.event()
        seen = []
        event.callbacks.append(lambda evt: seen.append(evt.value))
        event.succeed("hello")
        engine.run()
        assert seen == ["hello"]

    def test_succeed_twice_rejected(self, engine):
        event = engine.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_rejected(self, engine):
        event = engine.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_failed_event_value_raises(self, engine):
        event = engine.event()
        event.fail(RuntimeError("boom"))
        engine.run()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_an_event_cannot_rewind_the_clock(self, engine):
        """An event fires at the instant it is triggered: it takes no
        delay, so a negative one cannot run the clock backwards."""
        engine.run(until=5.0)
        event = engine.event()
        with pytest.raises(TypeError):
            event.succeed(delay=-3.0)
        with pytest.raises(TypeError):
            engine.event().fail(RuntimeError("boom"), delay=-3.0)
        fired = []
        event.callbacks.append(lambda evt: fired.append(engine.now))
        event.succeed()
        engine.run()
        assert fired == [5.0] and engine.now == 5.0


class TestProcess:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return 99
        assert engine.run_process(proc()) == 99

    def test_sequential_timeouts_accumulate(self, engine):
        def proc():
            yield engine.timeout(5.0)
            yield engine.timeout(7.0)
            return engine.now
        assert engine.run_process(proc()) == 12.0

    def test_exception_propagates(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise ValueError("inside process")
        with pytest.raises(ValueError, match="inside process"):
            engine.run_process(proc())

    def test_yielding_non_event_rejected(self, engine):
        def proc():
            yield 42
        with pytest.raises(SimulationError, match="must yield Event"):
            engine.run_process(proc())

    def test_requires_generator(self, engine):
        with pytest.raises(TypeError):
            Process(engine, lambda: None)

    def test_waiting_on_already_processed_event(self, engine):
        done = engine.event()
        done.succeed("early")
        engine.run()
        assert done.processed

        def proc():
            value = yield done
            return value
        assert engine.run_process(proc()) == "early"

    def test_two_processes_interleave_deterministically(self, engine):
        order = []

        def a():
            yield engine.timeout(1.0)
            order.append("a1")
            yield engine.timeout(2.0)
            order.append("a2")

        def b():
            yield engine.timeout(2.0)
            order.append("b1")
            yield engine.timeout(2.0)
            order.append("b2")
        engine.process(a())
        engine.process(b())
        engine.run()
        assert order == ["a1", "b1", "a2", "b2"]

    def test_fifo_order_for_simultaneous_events(self, engine):
        order = []
        for tag in ("x", "y", "z"):
            engine.timeout(5.0).callbacks.append(
                lambda evt, tag=tag: order.append(tag))
        engine.run()
        assert order == ["x", "y", "z"]

    def test_deadlock_detected(self, engine):
        def proc():
            yield engine.event()  # never fires
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(proc())

    def test_process_waits_on_another_process(self, engine):
        def worker():
            yield engine.timeout(10.0)
            return "done"

        def waiter():
            result = yield engine.process(worker())
            return result, engine.now
        assert engine.run_process(waiter()) == ("done", 10.0)

    def test_failed_event_throws_into_process(self, engine):
        event = engine.event()
        event.fail(KeyError("nope"))

        def proc():
            try:
                yield event
            except KeyError:
                return "caught"
        assert engine.run_process(proc()) == "caught"
