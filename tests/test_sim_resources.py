"""Tests for signals, and for the ``Resource`` reference model that the
kernel-path and lane oracles in ``test_engine_diet`` stand on."""

import pytest

from repro.sim import Signal, SimulationError

from test_engine_diet import Resource


class TestResource:
    def test_immediate_grant_when_free(self, engine):
        resource = Resource(engine)

        def proc():
            request = resource.request()
            yield request
            assert resource.in_use == 1
            request.release()
            return "ok"
        assert engine.run_process(proc()) == "ok"
        assert resource.in_use == 0

    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_fifo_within_priority(self, engine):
        resource = Resource(engine)
        order = []

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()

        def waiter(tag):
            request = resource.request()
            yield request
            order.append((tag, engine.now))
            request.release()
        engine.process(holder())
        engine.process(waiter("first"))
        engine.process(waiter("second"))
        engine.run()
        assert [tag for tag, _t in order] == ["first", "second"]

    def test_priority_preempts_queue_order(self, engine):
        resource = Resource(engine)
        order = []

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()

        def waiter(tag, priority):
            request = resource.request(priority)
            yield request
            order.append(tag)
            request.release()
        engine.process(holder())
        engine.process(waiter("low", 5))
        engine.process(waiter("high", 0))
        engine.run()
        assert order == ["high", "low"]

    def test_capacity_two_runs_two_concurrently(self, engine):
        resource = Resource(engine, capacity=2)
        finish_times = []

        def worker():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()
            finish_times.append(engine.now)
        for _ in range(4):
            engine.process(worker())
        engine.run()
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_double_release_rejected(self, engine):
        resource = Resource(engine)

        def proc():
            request = resource.request()
            yield request
            request.release()
            request.release()
        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_cancel_before_grant(self, engine):
        resource = Resource(engine)

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()
        engine.process(holder())
        cancelled = resource.request()
        cancelled.release()  # cancel while queued

        def late():
            request = resource.request()
            yield request
            request.release()
            return engine.now
        # The cancelled request must not consume the grant.
        assert engine.run_process(late()) == 10.0


class TestSignal:
    def test_fire_resumes_all_waiters(self, engine):
        signal = Signal(engine)
        results = []

        def waiter(tag):
            value = yield signal.wait()
            results.append((tag, value))

        def firer():
            yield engine.timeout(5.0)
            count = signal.fire("go")
            return count
        engine.process(waiter("a"))
        engine.process(waiter("b"))
        assert engine.run_process(firer()) == 2
        engine.run()
        assert sorted(results) == [("a", "go"), ("b", "go")]

    def test_fire_with_no_waiters(self, engine):
        signal = Signal(engine)
        assert signal.fire() == 0
        assert signal.fire_count == 1

    def test_waiters_after_fire_wait_for_next(self, engine):
        signal = Signal(engine)
        signal.fire("first")

        def proc():
            value = yield signal.wait()
            return value

        def firer():
            yield engine.timeout(1.0)
            signal.fire("second")
        engine.process(firer())
        assert engine.run_process(proc()) == "second"

    def test_waiter_count(self, engine):
        signal = Signal(engine)
        assert signal.waiter_count == 0
        signal.wait()
        signal.wait()
        assert signal.waiter_count == 2
        signal.fire()
        assert signal.waiter_count == 0
