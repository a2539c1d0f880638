"""Tests for EPHEMERAL procedures (paper section 3.3, Figure 3)."""

import types

import pytest

from repro.lang import (
    EphemeralViolation,
    ephemeral,
    is_blocking,
    is_ephemeral,
    may_block,
    register_safe,
)


# Module-level procedures used as call targets.

@ephemeral
def enqueue_like(value):
    """Stands in for the paper's Enqueue procedure."""
    return value


def not_ephemeral(value):
    """Stands in for the paper's NotEphemeral procedure."""
    return value


@may_block
def blocking_sleep():
    pass


safe_primitive = register_safe(lambda x: x)


class TestFigure3:
    """The exact scenarios of the paper's Figure 3."""

    def test_good_handler_compiles(self):
        @ephemeral
        def good_handler(m):
            enqueue_like(m)
        assert is_ephemeral(good_handler)

    def test_illegal_handler_rejected_at_declaration(self):
        """IllegalHandler calls NotEphemeral: 'won't compile'."""
        with pytest.raises(EphemeralViolation, match="not declared EPHEMERAL"):
            @ephemeral
            def illegal_handler(m):
                not_ephemeral(m)

    def test_rejected_handler_is_not_marked_ephemeral(self):
        def illegal(m):
            not_ephemeral(m)
        with pytest.raises(EphemeralViolation):
            ephemeral(illegal)
        assert not is_ephemeral(illegal)


class TestClosureProperty:
    def test_ephemeral_may_call_ephemeral(self):
        @ephemeral
        def outer(x):
            return enqueue_like(x)
        assert outer(5) == 5

    def test_ephemeral_may_call_registered_safe(self):
        @ephemeral
        def uses_safe(x):
            return safe_primitive(x)
        assert uses_safe(3) == 3

    def test_blocking_call_rejected(self):
        with pytest.raises(EphemeralViolation, match="MAY BLOCK"):
            @ephemeral
            def bad():
                blocking_sleep()

    def test_safe_builtins_allowed(self):
        @ephemeral
        def uses_builtins(n):
            return len(range(min(n, 10)))
        assert uses_builtins(5) == 5

    def test_unsafe_builtin_rejected(self):
        with pytest.raises(EphemeralViolation, match="not.*safe list"):
            @ephemeral
            def uses_open():
                open("/dev/null")

    def test_module_qualified_call_checked(self):
        import time

        with pytest.raises(EphemeralViolation):
            @ephemeral
            def uses_time():
                time.sleep(1)

    def test_recursion_allowed(self):
        @ephemeral
        def countdown(n):
            if n <= 0:
                return 0
            return countdown(n - 1)
        assert countdown(3) == 0

    def test_annotated_param_method_checked(self):
        class Queue:
            def blocking_get(self):
                pass
        Queue.blocking_get = may_block(Queue.blocking_get)

        with pytest.raises(EphemeralViolation, match="MAY BLOCK"):
            @ephemeral
            def handler(q: Queue):
                q.blocking_get()

    def test_procedure_looked_up_by_name_rejected(self):
        """``getattr`` would reach any attribute, a blocking one included."""
        module = types.ModuleType("waits")
        module.wait = blocking_sleep

        with pytest.raises(EphemeralViolation, match="getattr.*safe list"):
            @ephemeral
            def handler(x):
                getattr(module, "wait")(x)

    def test_nested_comprehension_scanned(self):
        with pytest.raises(EphemeralViolation):
            @ephemeral
            def uses_comprehension(items):
                return [not_ephemeral(i) for i in items]


class TestStaticHoles:
    """What the declaration check cannot see, the time limit bounds."""

    def test_time_limit_terminates_what_the_check_missed(self, kernel):
        @may_block
        def wait():
            kernel.cpu.charge(500.0, "wait")

        @ephemeral
        def through_default(x, t={"w": wait}):
            t["w"]()

        @ephemeral
        def through_parameter(x, cb=wait):
            cb()

        dispatcher = kernel.dispatcher
        for handler in (through_default, through_parameter):
            event = dispatcher.declare("Hole.%s" % handler.__name__)
            handle = dispatcher.install(event, handler, time_limit=30.0)
            marker = kernel.cpu.begin()
            dispatcher.raise_event(event, 1)
            cost = kernel.cpu.end(marker)
            assert handle.terminations == 1
            assert cost == pytest.approx(
                30.0 + kernel.costs.dispatch_per_handler)


class TestMarkers:
    def test_is_ephemeral_default_false(self):
        assert not is_ephemeral(not_ephemeral)

    def test_is_blocking(self):
        assert is_blocking(blocking_sleep)
        assert not is_blocking(enqueue_like)

    def test_ephemeral_rejects_non_function(self):
        with pytest.raises(EphemeralViolation):
            ephemeral("not a function")

    def test_kernel_primitives_are_blessed(self):
        """VIEW and the checksums are usable inside ephemeral handlers."""
        from repro.lang.view import VIEW
        from repro.net.checksum import internet_checksum
        from repro.net.headers import UDP_HEADER

        @ephemeral
        def handler(data):
            header = VIEW(data, UDP_HEADER)
            return internet_checksum(data) + header.length
        assert handler(bytes(8)) == 0xFFFF
