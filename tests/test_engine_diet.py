"""The engine diet: a zero-delay event must be justified by contention or
by a waiter.

Pins what PR 16 removed from the per-frame path -- process bootstraps,
completions nobody waits on, uncontended grants, the NIC's blocking queue
hand-off -- so that an abstraction hop creeping back in is a red test,
and states where an exception surfaces now that deliveries and receive
interrupts are callbacks instead of unwaited processes.
"""

import inspect
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.testbed import build_testbed
from repro.chaos.invariants import INVARIANTS
from repro.core import Credential
from repro.hw import EthernetSegment, LanceEthernet, PointToPointLink, T3Nic
from repro.hw.host import Host
from repro.lang import ephemeral
from repro.obs import MetricsRegistry
from repro.sim import Engine, Process, Resource, Signal

from test_hw_link_nic import make_host_nic


# ---------------------------------------------------------------------------
# (a) the event budget of one UDP round trip
# ---------------------------------------------------------------------------

def _next_event(engine):
    """``(event, advances_time)`` for the event ``engine.step`` runs next."""
    when, _seq, event = engine._heap[0]
    return event, when > engine.now


def _resumed_site(event):
    """What firing ``event`` resumes: a generator function or a callback."""
    (callback,) = event.callbacks
    process = getattr(callback, "__self__", None)
    if not isinstance(process, Process):
        return callback.__name__, ""
    generator = process._generator
    while getattr(generator, "gi_yieldfrom", None) is not None:
        generator = generator.gi_yieldfrom
    created = inspect.getgeneratorstate(generator) == inspect.GEN_CREATED
    return generator.gi_code.co_name, " bootstrap" if created else ""


#: (resumed site, advances time?) -> the name the budget table uses.
_EVENT_NAMES = {
    ("kernel_path", True): "cpu hold",
    ("transmit", True): "wire time",
    ("deliver", True): "propagation",
    ("raise_interrupt", True): "rx latency",
    ("kernel_path bootstrap", False): "kernel-path bootstrap",
    ("ping_loop", False): "reply wakeup",
}


class TestEventBudget:
    def test_udp_round_trip_is_twelve_named_events(self):
        """Nine events advance simulated time (3 CPU holds: client send,
        server interrupt, client interrupt; 2 wire times; 2 propagations;
        2 rx latencies).  Three zero-delay hops remain and each has a
        reason: the two interrupt kernel paths start through a bootstrap
        event (starting them inside the rx-latency callback reorders
        same-instant CPU requests and moves the fat-tree fingerprint),
        and the client's ``Signal`` waiter is a real waiter."""
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
        trips = []

        def ping_loop():
            for _ in range(6):
                waiter = reply_seen.wait()
                yield from client_host.kernel_path(
                    lambda: client_ep.send(bytes(8), bed.ip(1), 7002))
                yield waiter
                trips.append(engine.events_processed)

        process = engine.process(ping_loop())
        folded = Counter()
        while process.is_alive:
            event, advances_time = _next_event(engine)
            site, bootstrap = _resumed_site(event)
            if len(trips) >= 2:     # ARP and cold caches are behind us
                folded[_EVENT_NAMES.get((site + bootstrap, advances_time),
                                        (site + bootstrap, advances_time))] += 1
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
# (b) direct acquisition is request() minus the grant event
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
# (c) a completion event needs a waiter
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
# (d) the NIC transmit drain
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
