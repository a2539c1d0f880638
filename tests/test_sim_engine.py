"""Tests for the discrete-event engine."""

import ast
import pathlib

import pytest

import repro
from repro.hw.host import Host
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


_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestNonFiniteTimes:
    """A NaN time compares false against everything, so it used to pass
    the ``< 0`` and ``< now`` tests, pop out of (time, sequence) order
    and set the clock to NaN; an infinite one set it to infinity.  Each
    entry point rejects both with the error it raises for a negative
    delay or a past instant, and pushes nothing."""

    @pytest.mark.parametrize("delay", _NON_FINITE)
    def test_call_after(self, engine, delay):
        with pytest.raises(ValueError, match="finite"):
            engine.call_after(delay, print)
        assert not engine._heap and engine._sequence == 0

    @pytest.mark.parametrize("when", _NON_FINITE)
    def test_call_at(self, engine, when):
        with pytest.raises(SimulationError, match="not finite"):
            engine.call_at(when, print)
        assert not engine._heap and engine._sequence == 0

    @pytest.mark.parametrize("delay", _NON_FINITE)
    def test_timeout(self, engine, delay):
        with pytest.raises(ValueError, match="finite"):
            engine.timeout(delay)
        assert not engine._heap and engine._sequence == 0

    @pytest.mark.parametrize("delay", _NON_FINITE + [-1.0])
    def test_set_timer(self, engine, delay):
        """The timer pushes its entry in place: it checks for itself."""
        host = Host(engine, "h")
        with pytest.raises(ValueError, match="finite and non-negative"):
            host.set_timer(delay, print)
        assert not engine._heap and engine.timers_armed == 0

    @pytest.mark.parametrize("until", _NON_FINITE)
    def test_run_until(self, engine, until):
        """``run(until=nan)`` left the clock at NaN."""
        engine.timeout(5.0)
        with pytest.raises(ValueError, match="cannot run until"):
            engine.run(until=until)
        assert engine.now == 0.0 and len(engine._heap) == 1

    def test_timers_run_in_time_order(self, engine):
        """The reproduction: timers at 1..5 with a NaN one among them ran
        1, 2, 3, 4, nan, 5."""
        host = Host(engine, "h")
        fired = []
        for delay in (1.0, 2.0, 3.0, 4.0, 5.0):
            host.set_timer(delay, lambda: fired.append(engine.now))
        with pytest.raises(ValueError):
            host.set_timer(float("nan"), lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0] and engine.now == 5.0


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


# ---------------------------------------------------------------------------
# every heap push claims its own sequence number
# ---------------------------------------------------------------------------

_SRC = pathlib.Path(repro.__file__).parent

#: Every function of ``src/repro`` that pushes a heap entry itself.  Apart
#: from the engine's own, these are the per-frame and per-syscall sites
#: that push in place instead of calling ``Engine.call_after`` /
#: ``call_at`` (DESIGN.md section 2).
_PUSH_SITES = {
    ("sim/engine.py", "Event.succeed"),
    ("sim/engine.py", "Timeout.__init__"),
    ("sim/engine.py", "Engine.call_after"),
    ("sim/engine.py", "Engine.call_at"),
    ("hw/cpu.py", "KernelPath.start"),
    ("hw/nic.py", "NIC.frame_on_wire"),
    ("hw/link.py", "_Medium._send_on_lane"),
    ("hw/link.py", "EthernetSegment.transmit"),
    ("hw/link.py", "EthernetSegment._bus_sent"),
    ("hw/link.py", "SwitchPort._egress"),
    ("hw/host.py", "Timer.__init__"),
}


def _pushes():
    """``(path, qualname, statement before, push call)`` for each
    ``heappush(...)`` statement in ``src/repro``."""
    found = []

    def visit(node, path, scope):
        for field, value in ast.iter_fields(node):
            block = value if isinstance(value, list) else [value]
            previous = None
            for child in block:
                if not isinstance(child, ast.AST):
                    continue
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                call = child.value if isinstance(child, ast.Expr) else None
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "heappush"):
                    found.append((path, ".".join(scope), previous, call))
                visit(child, path, inner)
                previous = child if isinstance(child, ast.stmt) else None
    for path in sorted(_SRC.rglob("*.py")):
        source = path.read_text()
        assert "heapq.heappush" not in source, path
        visit(ast.parse(source), str(path.relative_to(_SRC)), ())
    return found


class TestInPlacePushes:
    def test_every_push_follows_its_own_sequence_increment(self):
        """A push must claim a fresh sequence number, or two entries at
        one instant share a FIFO tiebreak (and the heap then compares
        their callbacks).  So each ``heappush(X._heap, (when,
        X._sequence, fn, arg))`` statement directly follows ``X._sequence
        += 1``, for the same ``X``."""
        pushes = _pushes()
        assert {(path, scope) for path, scope, _, _ in pushes} == _PUSH_SITES
        for path, scope, previous, call in pushes:
            where = "%s:%s line %d" % (path, scope, call.lineno)
            heap, entry = call.args
            assert isinstance(heap, ast.Attribute) and heap.attr == "_heap", \
                where
            owner = ast.dump(heap.value)
            assert isinstance(entry, ast.Tuple) and len(entry.elts) == 4, where
            sequence = entry.elts[1]
            assert (isinstance(sequence, ast.Attribute)
                    and sequence.attr == "_sequence"
                    and ast.dump(sequence.value) == owner), where
            assert (isinstance(previous, ast.AugAssign)
                    and isinstance(previous.op, ast.Add)
                    and isinstance(previous.target, ast.Attribute)
                    and previous.target.attr == "_sequence"
                    and ast.dump(previous.target.value) == owner
                    and getattr(previous.value, "value", None) == 1), where
