"""The engine diet: a zero-delay event must be justified by contention or
by a waiter, and hardware runs on callbacks, not processes.

Pins what was removed from the per-frame path -- process bootstraps,
completions nobody waits on, uncontended grants, the NIC's blocking queue
hand-off, and then every per-frame ``Process`` (interrupt kernel paths,
NIC drains, link lanes, switch ports) -- so that an abstraction hop
creeping back in is a red test; checks the ``KernelPath`` continuation
against the generator kernel path it replaced; and states where an
exception surfaces now that hardware is heap callbacks.
"""

import inspect
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.chaos.invariants import INVARIANTS
from repro.core import Credential
from repro.fabric.topology import fat_tree
from repro.hw import (EthernetSegment, LanceEthernet, PointToPointLink,
                      Switch, T3Nic)
from repro.hw.cpu import INTERRUPT_PRIORITY, THREAD_PRIORITY, ChargeError
from repro.hw.host import Host
from repro.lang import ephemeral
from repro.net.headers import ip_aton
from repro.obs import MetricsRegistry
from repro.sim import Engine, Process, Resource, Signal
from repro.sim.engine import _fire

from test_hw_link_nic import make_host_nic


# ---------------------------------------------------------------------------
# (a) the event budget of one UDP round trip
# ---------------------------------------------------------------------------

def _next_entry(engine):
    """``(site, advances_time)`` for the heap entry ``engine.step`` runs
    next.  The site is the hardware callback the entry calls, or, for an
    entry that resumes a process (directly, or through an event's one
    callback), the generator function it resumes -- marked " bootstrap"
    when the generator has not started yet."""
    when, _seq, fn, arg = engine._heap[0]
    if fn is _fire:
        (fn,) = arg.callbacks
    process = getattr(fn, "__self__", None)
    if not isinstance(process, Process):
        return fn.__name__, when > engine.now
    generator = process._generator
    while getattr(generator, "gi_yieldfrom", None) is not None:
        generator = generator.gi_yieldfrom
    created = inspect.getgeneratorstate(generator) == inspect.GEN_CREATED
    return (generator.gi_code.co_name + (" bootstrap" if created else ""),
            when > engine.now)


#: (site, advances time?) -> the name the budget table uses.
_EVENT_NAMES = {
    ("_held", True): "cpu hold",
    ("_bus_sent", True): "wire time",
    ("_deliver", True): "propagation",
    ("_raise_interrupt", True): "rx latency",
    ("start", False): "kernel-path bootstrap",
    ("ping_loop", False): "reply wakeup",
}


def _ping_pong(trips=6):
    """A SPIN UDP ping-pong on Ethernet: ``(bed, ping_loop, trip_marks)``.

    ``ping_loop`` sends ``trips`` 8-byte pings, each from a kernel path the
    loop waits on, and waits for the reply; ``trip_marks`` collects
    ``engine.events_processed`` as each reply arrives."""
    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    engine = bed.engine
    client_host = bed.hosts[0]
    reply_seen = Signal(engine)
    server_ep = None

    @ephemeral
    def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        client_host.defer(reply_seen.fire)

    server_ep = bed.stacks[1].udp_manager.bind(
        Credential("pong"), 7002, server_handler)
    client_ep = bed.stacks[0].udp_manager.bind(
        Credential("ping"), 7001, client_handler)
    trip_marks = []

    def ping_loop():
        for _ in range(trips):
            waiter = reply_seen.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(bytes(8), bed.ip(1), 7002))
            yield waiter
            trip_marks.append(engine.events_processed)

    return bed, ping_loop, trip_marks


class TestEventBudget:
    def test_udp_round_trip_is_twelve_named_events(self):
        """Nine entries advance simulated time (3 CPU holds: client send,
        server interrupt, client interrupt; 2 wire times; 2 propagations;
        2 rx latencies).  Three zero-delay hops remain and each has a
        reason: the two interrupt kernel paths start from a bootstrap
        entry (starting them inside the rx-latency callback reorders
        same-instant CPU requests and moves the fat-tree fingerprint),
        and the client's ``Signal`` waiter is a real waiter.  The client's
        own send path completes inside its hold's entry: no hop."""
        bed, ping_loop, trips = _ping_pong()
        engine = bed.engine
        process = engine.process(ping_loop())
        folded = Counter()
        while process.is_alive:
            site = _next_entry(engine)
            if len(trips) >= 2:     # ARP and cold caches are behind us
                folded[_EVENT_NAMES.get(site, site)] += 1
            engine.step()
        steady_trips = len(trips) - 2
        assert {name: count / steady_trips
                for name, count in folded.items()} == {
            "cpu hold": 3,
            "wire time": 2,
            "propagation": 2,
            "rx latency": 2,
            "kernel-path bootstrap": 2,
            "reply wakeup": 1,
        }
        assert trips[-1] - trips[-2] == 12

    def test_a_cancelled_timer_costs_one_noop_event(self, engine):
        """The timer row of the budget: arming pushes one heap entry,
        cancelling only flags it, and the dead entry pops as an event
        that runs nothing.  N armed-and-cancelled timers are exactly N
        events, and none while only they are left (``run()`` is done)."""
        host = Host(engine, "h")
        fired = []
        timers = [host.set_timer(10.0 * (index + 1), fired.append, (index,))
                  for index in range(25)]
        assert engine.pending_count() == len(engine._heap) == 25
        for timer in timers:
            timer.cancel()
        engine.run()
        assert engine.events_processed == 0 and engine.now == 0.0
        engine.run(until=1_000.0)
        assert engine.events_processed == 25 and fired == []
        assert engine.cancelled_timers == 0 and not engine._heap


# ---------------------------------------------------------------------------
# (b) no process per frame
# ---------------------------------------------------------------------------

@pytest.fixture
def process_inits(monkeypatch):
    """A list that gains one entry per ``Process.__init__`` call."""
    made = []
    original = Process.__init__

    def counting(self, engine, generator, name=""):
        made.append(name or getattr(generator, "__name__", "process"))
        original(self, engine, generator, name)
    monkeypatch.setattr(Process, "__init__", counting)
    return made


class TestNoProcessPerFrame:
    """Interrupt kernel paths, NIC drains, link lanes and switch ports
    are callback chains: the only processes a run builds are the ones the
    test itself starts (a process per hardware hop would be 4 a UDP round
    trip)."""

    def test_steady_udp_trip_builds_no_process(self, process_inits):
        bed, ping_loop, trips = _ping_pong(trips=6)
        bed.engine.run_process(ping_loop())
        assert len(trips) == 6
        assert process_inits == ["ping_loop"]

    def test_atm_tcp_segment_builds_no_process(self, process_inits):
        bed = build_testbed("spin", "atm", deliver_mode="interrupt")
        engine = bed.engine
        received = []

        def on_accept(tcb):
            tcb.on_data = lambda data: received.append(len(data))
        bed.stacks[1].tcp_manager.listen(Credential("sink"), 9000, on_accept)
        payload = bytes(64 * 1024)

        def work():
            tcb = bed.stacks[0].tcp_manager.connect(
                Credential("source"), bed.ip(1), 9000)
            tcb.on_established = lambda: tcb.send(payload)
        bed.engine.run_process(bed.hosts[0].kernel_path(work), name="tcp")
        engine.run()
        assert sum(received) == len(payload) and len(received) >= 7
        assert process_inits == ["tcp"]

    def test_fat_tree_frame_builds_no_process(self, process_inits):
        """Sends fired from ``call_at`` as spawned kernel paths, like
        perfbench's open-loop generator: a whole run builds none."""
        bed = fat_tree(4)
        engine = bed.engine
        dst = bed.host_locator.index((2, 0, 0))     # across the core
        got = []

        @ephemeral
        def sink(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append(engine.now)
        bed.stacks[dst].udp_manager.bind(Credential("rx"), 9000, sink)
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("tx"), 9001, sink)
        host = bed.hosts[0]

        def send(_arg) -> None:
            host.spawn_kernel_path(
                lambda: endpoint.send(bytes(64), ip_aton("10.2.0.2"), 9000))
        for index in range(20):
            engine.call_at(50.0 * (index + 1), send)
        engine.run()
        assert len(got) == 20
        assert process_inits == []


# ---------------------------------------------------------------------------
# (c) the KernelPath continuation against the generator it replaced
# ---------------------------------------------------------------------------

def _reference_kernel_path(host, fn, args=(), priority=THREAD_PRIORITY):
    """The generator kernel path ``KernelPath`` replaced, kept as the
    oracle (its hold was a recycled pooled timeout; ``engine.timeout`` is
    the same heap entry)."""
    cpu = host.cpu
    resource = cpu.resource
    if not resource.try_acquire():
        yield resource.request(priority)
    profile = cpu.profile
    if profile is not None:
        profile.push(getattr(fn, "__name__", "kernel_path"))
    stack = cpu._stack
    stack.append(0.0)
    marker = len(stack)
    try:
        result = fn(*args)
    finally:
        if profile is not None:
            profile.pop()
        if marker != len(stack):
            raise ChargeError(
                "mismatched cpu.end(): marker %d but stack depth %d"
                % (marker, len(stack)))
        amount = stack.pop()
        deferred = host._deferred
        if deferred:
            host._deferred = []
        else:
            deferred = ()
    if amount > 0:
        yield host.engine.timeout(amount)
        cpu.busy_time += amount
        if profile is not None:
            profile.consumed(amount)
    resource.release()
    for action in deferred:
        action()
    return result


class _ProfileLog:
    """A ``cpu.profile`` that logs what a kernel path tells it, and when."""

    def __init__(self, engine, log):
        self.engine = engine
        self.log = log

    def push(self, label):
        self.log.append(("push", label, self.engine.now))

    def pop(self):
        self.log.append(("pop", self.engine.now))

    def consumed(self, amount):
        self.log.append(("consumed", amount, self.engine.now))


_CONTINUATION = (
    lambda host, fn, priority: host.spawn_kernel_path(fn, priority=priority),
    lambda host, fn, priority: host.kernel_path(fn, priority=priority))
_REFERENCE = (
    lambda host, fn, priority: host.engine.process(
        _reference_kernel_path(host, fn, (), priority)),
    lambda host, fn, priority: _reference_kernel_path(host, fn, (), priority))


def _cpu_schedule(jobs, paths):
    """Run ``jobs`` on one CPU with ``paths`` = (spawn, wait-on) and
    return everything observable about the schedule."""
    spawn, wait_on = paths
    engine = Engine()
    host = Host(engine, "h")
    log = []
    host.cpu.profile = _ProfileLog(engine, log)

    def body(index, charge, n_deferred, followup):
        def fn():
            log.append(("run", index, engine.now))
            host.cpu.charge(charge)
            for k in range(n_deferred):
                host.defer(lambda k=k: log.append(
                    ("deferred", index, k, engine.now)))
            if followup:
                host.defer(lambda: spawn(
                    host, body(-index - 1, 1.0, 1, False),
                    INTERRUPT_PRIORITY))
            return index
        fn.__name__ = "job%d" % index
        return fn

    def job(index, arrival, waited, priority, charge, n_deferred, followup):
        yield engine.timeout(arrival)
        fn = body(index, charge, n_deferred, followup)
        if waited:
            result = yield from wait_on(host, fn, priority)
            log.append(("returned", index, result, engine.now))
        else:
            spawn(host, fn, priority)

    for index, spec in enumerate(jobs):
        engine.process(job(index, *spec))
    engine.run()
    return (log, host.cpu.busy_time, engine.events_processed,
            host.cpu.resource.in_use, engine.now)


class TestKernelPathOracle:
    @given(st.lists(st.tuples(st.integers(0, 8), st.booleans(),
                              st.sampled_from([INTERRUPT_PRIORITY,
                                               THREAD_PRIORITY]),
                              st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]),
                              st.integers(0, 2), st.booleans()),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_same_schedule_as_the_generator_path(self, jobs):
        """Spawned and waited-on paths with random arrivals, priorities,
        charges (zero included), deferred actions and follow-up interrupt
        paths spawned from a deferred action: grant order and times, the
        profile's push/pop/consumed stream, deferred-action and completion
        order, ``busy_time`` and ``events_processed`` all equal the
        generator kernel path's."""
        assert (_cpu_schedule(jobs, _CONTINUATION)
                == _cpu_schedule(jobs, _REFERENCE))

    def test_fn_failure_reaches_the_waiting_process(self, engine):
        host = Host(engine, "h")

        def kernel_bug():
            raise KeyError("kernel bug")

        def proc():
            with pytest.raises(KeyError, match="kernel bug"):
                yield from host.kernel_path(kernel_bug)
            return engine.now
        assert engine.run_process(proc()) == 0.0

    def test_fn_failure_after_a_contended_grant_reaches_the_process(
            self, engine):
        """The path queued for a busy CPU: ``fn`` runs in the grant's
        entry, and its exception is thrown into the waiting process
        there, not out of ``engine.step``."""
        host = Host(engine, "h")
        host.spawn_kernel_path(lambda: host.cpu.charge(5.0))

        def kernel_bug():
            raise KeyError("kernel bug")

        def proc():
            yield engine.timeout(1.0)
            assert host.cpu.resource.in_use == 1
            with pytest.raises(KeyError, match="kernel bug"):
                yield from host.kernel_path(kernel_bug)
            return engine.now
        assert engine.run_process(proc()) == 5.0

    def test_zero_charge_path_completes_with_no_event(self, engine):
        host = Host(engine, "h")
        flushed = []

        def free():
            host.defer(lambda: flushed.append(engine.now))
            return "free"

        def proc():
            before = engine.events_processed
            result = yield from host.kernel_path(free)
            return (result, engine.events_processed - before,
                    engine.pending_count(), host.cpu.resource.in_use)
        assert engine.run_process(proc()) == ("free", 0, 0, 0)
        assert flushed == [0.0]

    def test_charged_path_costs_one_hold_and_resumes_in_it(self, engine):
        host = Host(engine, "h")

        def proc():
            before = engine.events_processed
            yield from host.kernel_path(lambda: host.cpu.charge(2.5))
            return engine.now, engine.events_processed - before
        assert engine.run_process(proc()) == (2.5, 1)
        assert host.cpu.busy_time == 2.5


# ---------------------------------------------------------------------------
# (d) direct acquisition is request() minus the grant event
# ---------------------------------------------------------------------------

def _hold_log(direct, capacity, workers):
    """Run ``workers`` = [(arrival, priority, hold)] over one Resource."""
    engine = Engine()
    resource = Resource(engine, capacity)
    grants, releases = [], []

    def worker(index, arrival, priority, hold):
        yield engine.timeout(arrival)
        if direct:
            if not resource.try_acquire():
                yield resource.request(priority)
        else:
            request = resource.request(priority)
            yield request
        grants.append((index, engine.now))
        yield engine.timeout(hold)
        releases.append((index, engine.now, resource.in_use))
        if direct:
            resource.release()
        else:
            request.release()

    for index, spec in enumerate(workers):
        engine.process(worker(index, *spec))
    engine.run()
    assert resource.in_use == 0
    return grants, releases, engine.events_processed


class TestDirectAcquire:
    @given(st.integers(1, 3),
           st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2),
                              st.integers(0, 5)),
                    min_size=1, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_same_grants_as_request(self, capacity, workers):
        """Any interleaving of arrivals, priorities and hold times gives
        the same grant order and times, and the same ``in_use`` at every
        release, either way; the direct path only ever saves events.  (A
        grant and a release at one instant may swap places -- the removed
        hop was what put the grant second -- so the two are compared as
        two sequences.)"""
        *plain, plain_events = _hold_log(False, capacity, workers)
        *direct, direct_events = _hold_log(True, capacity, workers)
        assert direct == plain
        assert direct_events <= plain_events

    def test_uncontended_acquire_fires_no_event(self, engine):
        resource = Resource(engine)
        assert resource.try_acquire()
        assert resource.in_use == 1 and engine.pending_count() == 0
        assert not resource.try_acquire()
        resource.release()
        assert resource.in_use == 0 and engine.pending_count() == 0

    def test_waiter_ahead_blocks_direct_acquire(self, engine):
        """A free unit is not up for grabs while someone is queued."""
        resource = Resource(engine)
        assert resource.try_acquire()
        queued = resource.request()
        resource.release()
        assert queued.granted_at == engine.now
        assert not resource.try_acquire()

    def test_grant_value_is_not_the_request(self, engine):
        """A request granted with itself is a reference cycle."""
        resource = Resource(engine)
        request = resource.request()
        engine.run()
        assert request.value is None


# ---------------------------------------------------------------------------
# (e) a completion event needs a waiter
# ---------------------------------------------------------------------------

class TestUnwaitedCompletion:
    def test_no_waiter_no_event_and_late_yield_gets_the_value(self, engine):
        def child():
            yield engine.timeout(1.0)
            return 7
        process = engine.process(child())
        engine.run()
        assert process.processed and process.value == 7
        assert engine.events_processed == 2     # bootstrap + timeout

        def parent():
            return (yield process)
        assert engine.run_process(parent()) == 7

    def test_waiter_still_gets_a_completion_event(self, engine):
        def child():
            yield engine.timeout(1.0)
            return 7
        process = engine.process(child())
        seen = []
        process.callbacks.append(lambda event: seen.append(event.value))
        engine.run()
        assert seen == [7]
        assert engine.events_processed == 3

    def test_unwaited_failure_is_kept_for_a_late_yield(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise ValueError("kept, not raised")
        process = engine.process(child())
        engine.run()            # nobody waits: the failure stays put
        assert process.processed and not process.ok

        def parent():
            with pytest.raises(ValueError, match="kept"):
                yield process
            return "resumed"
        assert engine.run_process(parent()) == "resumed"


# ---------------------------------------------------------------------------
# (f) the NIC transmit drain
# ---------------------------------------------------------------------------

def _send(host, nic, payloads, dst):
    def work():
        for payload in payloads:
            nic.stage_tx(payload, dst)
    yield from host.kernel_path(work)


class TestNicDrain:
    def _pair(self, engine, **nic_kwargs):
        link = PointToPointLink(engine, bandwidth_bps=45e6)
        host_a, nic_a = make_host_nic(engine, T3Nic, "a", "addr-a",
                                      **nic_kwargs)
        host_b, nic_b = make_host_nic(engine, T3Nic, "b", "addr-b")
        link.attach(nic_a)
        link.attach(nic_b)
        return link, host_a, nic_a, host_b

    def test_idle_nic_runs_no_process(self, engine):
        _link, host_a, nic_a, _ = self._pair(engine)
        assert engine.pending_count() == 0 and not nic_a._draining
        engine.run_process(_send(host_a, nic_a, [bytes(64)], "addr-b"))
        engine.run()
        assert not nic_a._draining

    def test_overflow_counts_in_the_queue_drops(self, engine):
        link, host_a, nic_a, host_b = self._pair(engine, tx_queue_len=4)
        got = []
        host_b.on_frame = got.append
        engine.run_process(_send(host_a, nic_a, [bytes(64)] * 10, "addr-b"))
        engine.run()
        # One frame on the wire plus four queued; the rest overflow.
        assert nic_a.tx_frames == 10
        assert nic_a.tx_drops == 5
        assert len(got) == link.frames_carried == 5

    def test_overflow_is_published_as_hw_nic_tx_drops(self, engine):
        link, host_a, nic_a, _host_b = self._pair(engine, tx_queue_len=2)
        registry = MetricsRegistry()
        nic_a.register_metrics(registry)
        engine.run_process(_send(host_a, nic_a, [bytes(64)] * 5, "addr-b"))
        engine.run()
        # One on the wire, two queued, two dropped -- read as an operator
        # would, from the registry snapshot.
        assert link.frames_carried == 3
        assert registry.snapshot()["hw.nic.tx_drops"]["value"] == 2

    def test_unplugged_nic_swallows_frames(self, engine):
        host, nic = make_host_nic(engine, T3Nic, "a", "addr-a")
        engine.run_process(_send(host, nic, [bytes(64)] * 3, "addr-b"))
        engine.run()
        assert nic.tx_frames == 3
        assert len(nic._tx_queue) == 0 and not nic._draining

    def test_frame_staged_mid_transmit_keeps_fifo_order(self, engine):
        _link, host_a, nic_a, host_b = self._pair(engine)
        got = []
        host_b.on_frame = got.append
        first = [bytes([1]) * 4000, bytes([2]) * 64]

        def late():
            yield engine.timeout(200.0)
            # Frame 1 is on the wire (711 us of it), frame 2 is queued.
            assert nic_a._draining and len(nic_a._tx_queue) == 1
            yield from _send(host_a, nic_a, [bytes([3]) * 64], "addr-b")
        engine.process(_send(host_a, nic_a, first, "addr-b"))
        engine.run_process(late())
        engine.run()
        assert [data[0] for data in got] == [1, 2, 3]

    def test_chaos_queue_invariants_hold(self, spin_pair):
        bed = spin_pair
        sender = bed.stacks[0].udp_manager.bind(
            Credential("c"), 7001, ephemeral(lambda *args: None))

        def work():
            for _ in range(20):
                sender.send(bytes(512), bed.ip(1), 7002)
        bed.engine.run_process(bed.hosts[0].kernel_path(work))
        bed.engine.run()
        ctx = SimpleNamespace(bed=bed)
        assert bed.nics[0].tx_frames >= 20
        assert INVARIANTS["frame_conservation"](ctx) == []
        assert INVARIANTS["nic_rings_drained"](ctx) == []


# ---------------------------------------------------------------------------
# where an exception surfaces
# ---------------------------------------------------------------------------

class _BrokenHost(Host):
    def frame_arrived(self, nic, frame):
        raise RuntimeError("interrupt entry bug")


class TestErrorSurfacing:
    def test_frame_arrived_failure_leaves_engine_step(self, engine):
        """The rx-latency hop is a callback, so a bug in the interrupt
        entry propagates out of the engine instead of dying in a process
        nobody waits on."""
        seg = EthernetSegment(engine)
        host_a, nic_a = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        broken = _BrokenHost(engine, "broken")
        nic_b = LanceEthernet(engine, "b", b"\x0b" * 6)
        broken.add_nic(nic_b)
        seg.attach(nic_a)
        seg.attach(nic_b)
        engine.process(_send(host_a, nic_a, [bytes(64)], b"\x0b" * 6))
        with pytest.raises(RuntimeError, match="interrupt entry bug"):
            engine.run()

    def test_frame_on_wire_failure_leaves_engine_step(self, engine):
        seg = EthernetSegment(engine)
        host_a, nic_a = make_host_nic(engine, LanceEthernet, "a", b"\x0a" * 6)
        _host_b, nic_b = make_host_nic(engine, LanceEthernet, "b", b"\x0b" * 6)
        seg.attach(nic_a)
        seg.attach(nic_b)

        def broken_rx(frame):
            raise RuntimeError("device bug")
        nic_b.frame_on_wire = broken_rx
        engine.process(_send(host_a, nic_a, [bytes(64)], b"\x0b" * 6))
        with pytest.raises(RuntimeError, match="device bug"):
            engine.run()

    def test_spawned_kernel_path_failure_leaves_engine_run(self, engine):
        host = Host(engine, "h")

        def kernel_bug():
            raise RuntimeError("kernel bug")
        process = host.spawn_kernel_path(kernel_bug)
        with pytest.raises(RuntimeError, match="kernel bug"):
            engine.run()
        assert process.processed and not process.ok

    @staticmethod
    def _device_bug(frame):
        raise RuntimeError("device bug")

    def test_point_to_point_delivery_failure_leaves_engine_step(self, engine):
        """A peer's bug on a point-to-point wire used to die in the
        unwaited drain process: ``run()`` returned with one frame carried,
        the drain flag stuck and two frames queued forever."""
        link = PointToPointLink(engine, bandwidth_bps=45e6)
        host_a, nic_a = make_host_nic(engine, T3Nic, "a", "addr-a")
        _host_b, nic_b = make_host_nic(engine, T3Nic, "b", "addr-b")
        link.attach(nic_a)
        link.attach(nic_b)
        nic_b.frame_on_wire = self._device_bug
        engine.process(_send(host_a, nic_a, [bytes(64)] * 3, "addr-b"))
        with pytest.raises(RuntimeError, match="device bug"):
            engine.run()
        assert link.frames_carried == 1

    def _switched_pair(self, engine):
        switch = Switch(engine, forward_latency_us=10.0)
        host_a, nic_a = make_host_nic(engine, T3Nic, "a", "addr-a")
        _host_b, nic_b = make_host_nic(engine, T3Nic, "b", "addr-b")
        switch.new_port().attach(nic_a)
        switch.new_port().attach(nic_b)
        return switch, host_a, nic_a, nic_b

    def test_switch_accept_failure_leaves_engine_step(self, engine):
        switch, host_a, nic_a, _nic_b = self._switched_pair(engine)
        switch.accept = self._device_bug
        engine.process(_send(host_a, nic_a, [bytes(64)] * 3, "addr-b"))
        with pytest.raises(RuntimeError, match="device bug"):
            engine.run()

    def test_switch_to_nic_failure_leaves_engine_step(self, engine):
        switch, host_a, nic_a, nic_b = self._switched_pair(engine)
        nic_b.frame_on_wire = self._device_bug
        engine.process(_send(host_a, nic_a, [bytes(64)] * 3, "addr-b"))
        with pytest.raises(RuntimeError, match="device bug"):
            engine.run()
        assert switch.frames_forwarded >= 1
