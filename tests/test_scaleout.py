"""Scale-out tests: kernel timers, many-flow workload and port-reference
indexing.

The load-bearing property here is *bit-identical simulated time*: the
indexed demultiplexing is a wall-clock optimization that must be
unobservable on the simulated timeline, and kernel timers must fire
exactly when and in the order a sorted ``(deadline, arm order)`` list
says, whatever is cancelled in between.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.workloads import WORKLOADS, run_once
from repro.hw.host import Host
from repro.sim import Engine
from repro.unixos import SocketError

from nethelpers import make_pair
from twins import scan


# ---------------------------------------------------------------------------
# kernel timers against a sorted list
# ---------------------------------------------------------------------------

def _run_timers(ops):
    """Run a schedule/cancel program over ``Host.set_timer``.

    ``ops`` is ``[(gap, delay, cancel victim or None)]``: wait ``gap``,
    arm a timer ``delay`` out, then maybe cancel an earlier (or the same)
    timer.  Returns what fired as ``[(op index, fire time)]``, the engine,
    and what a sorted ``(deadline, arm order)`` list says should have
    fired -- a model that shares no code with the engine.
    """
    engine = Engine()
    host = Host(engine, "h")
    fired = []
    timers = []
    deadlines = []      # model: op index -> deadline
    live = set()        # model: armed, not cancelled in time
    now = 0.0           # model clock, advanced with the driver's own sums

    def driver():
        nonlocal now
        for index, (gap, delay, cancel) in enumerate(ops):
            yield engine.timeout(float(gap))
            now = now + float(gap)
            timers.append(host.set_timer(
                float(delay), lambda index=index: fired.append(
                    (index, engine.now))))
            deadlines.append(now + float(delay))
            live.add(index)
            if cancel is not None:
                victim = cancel % len(timers)
                timers[victim].cancel()
                # A timer armed earlier claimed its place in line before
                # this step's wait did, so at an equal instant it has
                # already fired and the cancel comes too late.
                if victim == index or deadlines[victim] > now:
                    live.discard(victim)

    engine.process(driver(), name="timer-program")
    engine.run()
    expected = sorted((deadlines[index], index) for index in live)
    return fired, engine, [(index, when) for when, index in expected], now


# Delays from immediate re-arms to hours; the small bands make equal
# deadlines, and cancels landing on the very instant of a deadline, common.
_delays = st.one_of(
    st.integers(0, 6),
    st.integers(0, 2_000),
    st.integers(0, 30_000_000),
    st.integers(0, 6_000_000_000),
)

_ops = st.lists(
    st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 3_000)),  # gap
              _delays,                   # timer delay
              st.one_of(st.none(), st.integers(0, 100))),  # cancel victim
    min_size=1, max_size=30)


class TestTimerHeap:
    @settings(max_examples=120, deadline=None)
    @given(_ops)
    @example([(0, 2, None), (2, 5, 0)])     # cancel at the deadline: too late
    @example([(0, 9, None), (4, 5, 1)])     # equal deadlines, second cancelled
    @example([(3, 0, 0)])                   # armed due now, cancelled at once
    def test_firing_order_and_timestamps_match_sorted_model(self, ops):
        fired, engine, expected, last_op = _run_timers(ops)
        assert fired == expected
        # The clock stops at the last live event -- the driver's last step
        # or the last firing -- never at a cancelled deadline.
        assert engine.now == max([last_op] + [when for _, when in expected])
        assert engine.pending_count() == 0
        assert len(engine._heap) == engine.cancelled_timers

    def test_cancelled_timer_never_fires(self, engine):
        host = Host(engine, "h")
        fired = []
        timer = host.set_timer(1_000.0, fired.append, (1,))
        timer.cancel()
        assert engine.pending_count() == 0      # only a dead entry is left
        engine.run(until=2_000.0)               # ... which pops as a no-op
        assert fired == [] and not timer.fired
        assert engine.cancelled_timers == 0 and engine.pending_count() == 0

    def test_equal_deadlines_fire_in_arm_order(self, engine):
        host = Host(engine, "h")
        fired = []
        host.set_timer(100.0, fired.append, ("first",))
        host.set_timer(100.0, fired.append, ("second",))
        engine.run()
        assert fired == ["first", "second"]
        assert engine.now == 100.0

    def test_run_ends_at_last_live_firing(self, engine):
        """A cancelled 2-hour deadline (TCP's keepalive) must not drag the
        clock: ``final_now_us`` fingerprints depend on it."""
        host = Host(engine, "h")
        fired = []
        host.set_timer(50.0, fired.append, ("early",))
        keepalive = host.set_timer(7_200e6, fired.append, ("keepalive",))
        host.set_timer(300.0, fired.append, ("late",))
        keepalive.cancel()
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 300.0
        assert engine.pending_count() == 0

    def test_cancel_after_fire_is_a_noop(self, engine):
        host = Host(engine, "h")
        fired = []
        timer = host.set_timer(10.0, fired.append, (1,))
        live = host.set_timer(20.0, fired.append, (2,))
        engine.run(until=15.0)
        assert timer.fired
        timer.cancel()
        assert engine.cancelled_timers == 0 and engine.pending_count() == 1
        engine.run()
        assert fired == [1, 2] and live.fired and engine.now == 20.0


# ---------------------------------------------------------------------------
# many-flow workload
# ---------------------------------------------------------------------------

class TestManyFlows:
    def test_quick_scale_meets_the_floor(self):
        # The acceptance bar: the quick bench run simulates >= 2000
        # concurrent flows.
        assert WORKLOADS["many_flows"].quick >= 2_000

    def test_all_flows_complete_and_overlap(self):
        record = run_once(WORKLOADS["many_flows"], 400)
        fp = record["fingerprint"]
        assert fp["tcp_done"] == 200
        assert fp["udp_done"] == 200
        # Every TCP flow is open at once (the stagger is much shorter
        # than a connection lifetime): this is a concurrency test, not
        # just a completion test.
        assert fp["peak_conns"] == 200
        # 512 B pushed per TCP flow + 128 B echoed per UDP flow.
        assert fp["bytes_in"] == 200 * 512 + 200 * 128
        assert record["events"] > 0
        # A record is simulated outputs only: nothing host-timed.
        assert set(record) == {"events", "metrics", "fingerprint"}

    def test_fingerprint_ignores_flow_cache_env(self):
        """The ``scan`` twin's reference dispatch gives the same record:
        fingerprint, heap entries and every metric."""
        def simulated(record):
            return record["fingerprint"], record["events"], record["metrics"]
        generated = simulated(run_once(WORKLOADS["many_flows"], 200))
        with scan():
            assert simulated(run_once(WORKLOADS["many_flows"], 200)) == \
                generated


# ---------------------------------------------------------------------------
# TCP local-port index
# ---------------------------------------------------------------------------

class TestPortIndex:
    def test_refs_track_connections_and_drain(self):
        engine, wire, a, b = make_pair()
        accepted = []
        b.tcp.listen(9000, accepted.append)
        clients = []

        def connect():
            clients.append(a.tcp.connect(b.my_ip, 9000))

        a.run_kernel(connect)
        a.run_kernel(connect)
        engine.run()
        ports = [tcb.lport for tcb in clients]
        assert len(set(ports)) == 2
        assert a.tcp._lport_refs == {ports[0]: 1, ports[1]: 1}
        for tcb in clients:
            a.run_kernel(tcb.close)
        for tcb in accepted:
            b.run_kernel(tcb.close)
        engine.run()  # through TIME_WAIT; forget() drops the refs
        assert a.tcp.connections == {}
        assert a.tcp._lport_refs == {}

    def test_allocate_port_skips_ports_in_use(self):
        engine, wire, a, b = make_pair()
        b.tcp.listen(9000, lambda tcb: None)
        clients = []
        base = a.tcp.EPHEMERAL_BASE

        def connect_pinned():
            clients.append(a.tcp.connect(b.my_ip, 9000, lport=base))

        def connect_auto():
            clients.append(a.tcp.connect(b.my_ip, 9000))

        a.run_kernel(connect_pinned)
        engine.run()
        # The allocator's probe starts at base, which is now bound: it
        # must skip it in O(1) rather than scan every connection.
        a.run_kernel(connect_auto)
        engine.run()
        assert clients[1].lport == base + 1

    def test_allocate_port_tries_every_ephemeral_port(self):
        """With base..65534 bound, 65535 is still free and is found; only
        a full range is out of ports."""
        engine, wire, a, b = make_pair()
        refs = a.tcp._lport_refs
        refs.update(dict.fromkeys(range(a.tcp.EPHEMERAL_BASE, 0xFFFF), 1))
        assert a.tcp.allocate_port() == 0xFFFF
        refs[0xFFFF] = 1
        with pytest.raises(RuntimeError, match="out of ephemeral ports"):
            a.tcp.allocate_port()

    def test_allocate_udp_port_tries_every_ephemeral_port(self, unix_pair):
        """The socket layer's UDP allocator covers 32768..65535 likewise."""
        layer = unix_pair.sockets[0]
        layer.udp_pcbs.update(dict.fromkeys(range(32768, 0xFFFF)))
        assert layer.allocate_udp_port() == 0xFFFF
        layer.udp_pcbs[0xFFFF] = None
        with pytest.raises(SocketError, match="out of UDP ports"):
            layer.allocate_udp_port()
