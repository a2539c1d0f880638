"""Property test: the two delivery rungs are equivalent, hostile
extensions and hostile raisers included.

The dispatcher's contract (``repro.spin.codegen``) is that running an
event's generated scan is *observably identical* to the interpreted
linear scan: the same handlers run in the same order, the same
statistics move, and the same simulated costs are charged in the same
order.  There are two rungs -- generated scans (default) and the
interpreted scan (``REPRO_FLOW_CACHE=0``) -- so this drives random
interleavings of handler installs, uninstalls and raises through two
kernels in lockstep, one per rung, and asserts the observable state
never diverges: delivery log, bit-identical charged microseconds,
per-handle statistics and the type of each handle's last error, and the
obs metrics snapshot (minus the compile count, which measures the rung).

Two kinds of guard are drawn:

* *opaque* guards, lambdas over one key argument, which the generated
  scan calls.  The containment arm exists twice -- the interpreted
  scan's ``except``s and the ones the generated code carries -- so these
  extensions misbehave (paper secs. 2-3.4: a faulty extension may not
  take down the kernel or another extension).  A guard may raise, return
  a verdict whose truthiness raises, return a non-bool, or uninstall a
  neighbour; a handler may raise, overrun its time limit, return
  garbage, uninstall itself or a neighbour, or install another handler;
  either may be delivered in a thread.  Raises outside any kernel path
  must fail with the same ``ChargeError`` on both rungs.
* *data* guards, built by the ``repro.core.filters`` constructors on the
  four packet events with the kernel's argument conventions, whose tests
  the generated scan inlines.  The packets are drawn to hit every edge
  of the inlining: runt frames, a head mbuf shorter than the header
  (the call-the-guard fallback), headroom before the frame, hostile
  offsets, non-mbuf arguments and wrong argument counts, as anything may
  raise an event through the exported ``Dispatcher.Raise``.  Between
  raises the TCP exclusion sets change with no install, as a redirect
  claim or a special implementation changes them.

The dispatcher's failure and termination totals must equal what the
opaque extensions injected plus what the data guards raised.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import filters
from repro.obs.registry import MetricsRegistry
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.spin.mbuf import Mbuf, PacketHeader

KEYS = (0, 1, 2, 3)

#: guards: pure functions of the key first, then the hostile ones.
PURE_GUARDS = ("none", "even", "low", "not_one", "true")
HOSTILE_GUARDS = ("garbage", "raises", "bool_raises", "uninstalls")

#: handler bodies: log only; log then raise (a contained failure); log
#: then charge past a time limit (an ephemeral termination, inline only).
TAME_KINDS = ("plain", "failing", "hog")
HOSTILE_KINDS = ("garbage", "uninstall_self", "uninstall_neighbour",
                 "installer")
HOG_LIMIT = 2.0

#: the ladder: generated scans, or the interpreted one.
MODES = ("compiled", "linear")

#: the packet events, by their argument conventions (repro.core.filters).
PACKET_EVENTS = ("link", "ip", "udp", "tcp")
ETHERTYPES = (0x0800, 0x0806, 0x88B5)
PROTOCOLS = (1, 6, 17, 99)
PORTS = (80, 7000, 9000)

#: each data guard constructor, by the event it sits on.
_DATA_GUARDS = {
    "link": st.builds(filters.ethertype_guard, st.sampled_from(ETHERTYPES)),
    "ip": st.one_of(
        st.builds(filters.ip_protocol_guard, st.sampled_from(PROTOCOLS)),
        st.builds(filters.transport_redirect_guard, st.sampled_from((6, 17)),
                  st.sampled_from(PORTS))),
    "udp": st.builds(filters.udp_dst_port_guard, st.sampled_from(PORTS)),
    "tcp": st.one_of(
        st.builds(filters.tcp_port_guard,
                  st.sets(st.sampled_from(PORTS), min_size=1)),
        st.just("tcp_standard")),
}


class _Impostor:
    """Looks like an mbuf to attribute reads, is not one to the guards."""

    def __init__(self, data):
        self._storage = data
        self.off = 0
        self.len = len(data)


@st.composite
def _packet_args(draw):
    """The arguments of one raise of one packet event."""
    event = draw(st.sampled_from(PACKET_EVENTS))
    # The store: headroom, then the frame, whose header fields sit at
    # 12 (the ethertype) and ``off + 2`` (a destination port).
    room = draw(st.sampled_from((0, 3)))
    off = draw(st.sampled_from((0, 14, 20)))
    data = bytearray(draw(st.binary(min_size=room + off + 24,
                                    max_size=room + off + 24)))
    data[room + 12:room + 14] = draw(st.sampled_from(ETHERTYPES)).to_bytes(
        2, "big")
    data[room + off + 2:room + off + 4] = draw(
        st.sampled_from(PORTS)).to_bytes(2, "big")
    # A runt keeps fewer bytes than the header needs (the store still
    # holds the rest); a short head link leaves the header's tail to the
    # next link, in the same store.
    total = draw(st.sampled_from((off + 24, off + 24, off + 24, None)))
    if total is None:
        total = draw(st.integers(0, off + 23))
    head_len = draw(st.sampled_from((total, total, total, None)))
    if head_len is None:
        head_len = draw(st.integers(0, total))
    m = Mbuf(data, room, head_len, PacketHeader(total))
    if head_len < total:
        m.next = Mbuf(data, room + head_len, total - head_len)
    if draw(st.booleans()):
        m.freeze()
    m = draw(st.sampled_from((m, m, m, m, None, 7, bytes(data),
                              _Impostor(data))))
    off = draw(st.sampled_from((off, off, off, -1, total + 5, float(off),
                                True)))
    port = draw(st.sampled_from(PORTS))
    args = {
        "link": ("nic0", m),
        "ip": (draw(st.sampled_from(PROTOCOLS)), m, off, 1, 2),
        "udp": (m, off, 1, 5000, 2, port),
        "tcp": (m, off, 1, 2),
    }[event]
    arity = draw(st.sampled_from(("exact", "exact", "exact", "short",
                                  "long")))
    if arity == "short":
        args = args[:-1]
    elif arity == "long":
        args += (0,)
    return event, args


def _install_data(event, kinds, deliveries):
    return st.tuples(st.just("install_data"), st.tuples(
        st.just(event), _DATA_GUARDS[event], st.sampled_from(kinds),
        st.sampled_from(deliveries)))


#: every example starts with a data guard on each packet event, so that
#: every packet meets one.
_prelude = st.tuples(*[_install_data(event, ("plain",), ("inline",))
                       for event in PACKET_EVENTS])

_ops = st.builds(lambda prelude, ops: list(prelude) + ops, _prelude, st.lists(st.one_of(
    st.tuples(st.just("install"),
              st.tuples(st.sampled_from(PURE_GUARDS + HOSTILE_GUARDS),
                        st.sampled_from(TAME_KINDS + HOSTILE_KINDS),
                        st.sampled_from(("inline", "thread")))),
    st.tuples(st.just("uninstall"), st.integers(0, 7)),
    st.tuples(st.just("send"), st.integers(0, len(KEYS) - 1)),
    st.tuples(st.just("burst"), st.tuples(st.integers(0, len(KEYS) - 1),
                                          st.integers(2, 4))),
    st.tuples(st.just("outside"), st.integers(0, len(KEYS) - 1)),
    st.sampled_from(PACKET_EVENTS).flatmap(lambda event: _install_data(
        event, TAME_KINDS + HOSTILE_KINDS, ("inline", "thread"))),
    # Packets are drawn more often than the rest: each one tests every
    # data guard on its event.
    *[st.tuples(st.just("packet"), _packet_args())] * 3,
    st.tuples(st.just("live"),
              st.tuples(st.integers(0, 1), st.sampled_from(PORTS))),
), min_size=1, max_size=40))


class _Explosive:
    """A guard verdict whose truthiness throws."""

    def __init__(self, side):
        self.side = side

    def __bool__(self):
        self.side.injected_failures += 1
        raise RuntimeError("no verdict")


class _Side:
    """One kernel driven through the op sequence under one ladder rung."""

    def __init__(self, mode: str):
        assert mode in MODES
        self.mode = mode
        self.engine = Engine()
        self.kernel = SpinKernel(self.engine, "prop-kernel")
        self.dispatcher = self.kernel.dispatcher
        # Forced per side so the property holds regardless of the
        # process-wide REPRO_FLOW_CACHE hatch.
        self.dispatcher.compiled = (mode == "compiled")
        self.event = self.dispatcher.declare("Prop.Packet")
        self.packet_events = {name: self.dispatcher.declare("Prop." + name)
                              for name in PACKET_EVENTS}
        #: the live sets a TCP-standard guard excludes (special, diverted).
        self.live = (set(), set())
        self.handles = []
        self.log = []
        #: what each raise outside a kernel path returned or raised.
        self.outcomes = []
        #: the failures and terminations the extensions caused.
        self.injected_failures = 0
        self.injected_terminations = 0
        #: of those, the failures of handlers behind data guards.
        self.data_handler_failures = 0
        self.packets = 0

    def _run(self, fn):
        self.engine.run_process(self.kernel.kernel_path(fn), name="prop-op")
        self.engine.run()

    def apply(self, op, arg):
        if op == "install":
            self._run(lambda: self._install(*arg))
        elif op == "install_data":
            event, guard, kind, delivery = arg
            if guard == "tcp_standard":
                guard = filters.tcp_standard_guard(*self.live)
            self._run(lambda: self._install(
                None, kind, delivery, self.packet_events[event], guard))
        elif op == "uninstall":
            self._uninstall(arg)
        elif op == "burst":
            key_idx, count = arg
            for _ in range(count):
                self._send(key_idx)
        elif op == "outside":
            self._outside(arg)
        elif op == "packet":
            event, args = arg
            self.packets += 1
            self._run(lambda: self.dispatcher.raise_event(
                self.packet_events[event], *args))
        elif op == "live":
            # No install: the scan compiled before must see the change.
            which, port = arg
            live = self.live[which]
            if port in live:
                live.discard(port)
            else:
                live.add(port)
        else:
            self._send(arg)

    def _uninstall_after(self, slot):
        """Uninstall the first installed handle after ``slot``."""
        for handle in self.handles[slot + 1:]:
            if handle.installed:
                handle.uninstall()
                return

    def _guard(self, name, slot):
        if name == "none":
            return None
        if name == "even":
            return lambda key: key % 2 == 0
        if name == "low":
            return lambda key: key < 2
        if name == "not_one":
            return lambda key: key != 1
        if name == "true":
            return lambda key: True
        if name == "garbage":
            return lambda key: "x" * (key % 2)   # a str, not a bool
        if name == "bool_raises":
            return lambda key: _Explosive(self)
        if name == "raises":
            def guard(key):
                self.injected_failures += 1
                raise ValueError("guard %d blew up" % slot)
            return guard
        assert name == "uninstalls"

        def guard(key):
            self._uninstall_after(slot)
            return key != 3
        return guard

    def _install(self, guard_name, kind, delivery, event=None, guard=None):
        """Install one handler (inside a kernel path, which may be a
        raise: an ``installer`` handler calls this)."""
        slot = len(self.handles)
        cpu = self.kernel.cpu
        fired = []

        def handler(*args):
            # Packet arguments are objects; the packet's number stands in.
            self.log.append((slot, args[0] if event is None
                             else self.packets))
            if kind == "failing":
                self.injected_failures += 1
                if event is not self.event:
                    self.data_handler_failures += 1
                raise RuntimeError("handler %d blew up" % slot)
            if kind == "hog":
                cpu.charge(HOG_LIMIT * 3, "handler")
                if delivery == "inline":
                    self.injected_terminations += 1
            elif kind == "garbage":
                return NotImplemented
            elif kind == "uninstall_self":
                if self.handles[slot].installed:
                    self.handles[slot].uninstall()
            elif kind == "uninstall_neighbour":
                self._uninstall_after(slot)
            elif kind == "installer" and not fired:
                fired.append(True)
                self._install("none", "plain", "inline")

        if event is None:
            event, guard = self.event, self._guard(guard_name, slot)
        limited = kind == "hog" and delivery == "inline"
        self.handles.append(self.dispatcher.install(
            event, handler, guard=guard, mode=delivery,
            time_limit=HOG_LIMIT if limited else None, label="h%d" % slot))

    def _uninstall(self, pick):
        installed = [h for h in self.handles if h.installed]
        if not installed:
            return  # no-op applied identically on both sides
        self._run(installed[pick % len(installed)].uninstall)

    def _send(self, key_idx):
        key = KEYS[key_idx]
        self._run(lambda: self.dispatcher.raise_event(self.event, key))

    def _outside(self, key_idx):
        """Raise with no kernel path open: no accumulator to charge."""
        try:
            result = self.dispatcher.raise_event(self.event, KEYS[key_idx])
        except Exception as exc:
            result = (type(exc).__name__, str(exc))
        self.outcomes.append(result)

    def data_guard_failures(self):
        """Failures the data guards raised (on hostile raises)."""
        return sum(h.failures for h in self.handles
                   if h.event is not self.event) - self.data_handler_failures

    def metrics(self):
        """The obs snapshot, minus the compile count."""
        registry = MetricsRegistry()
        self.dispatcher.register_metrics(registry)
        self.kernel.cpu.register_metrics(registry)
        return {name: entry for name, entry in registry.snapshot().items()
                if name != "spin.dispatcher.compiled_scans"}


def _frame(head_len=None, total=44, room=0, off=20):
    """An IP frame to TCP port 80 with ``room`` bytes of headroom before
    it, as ``_packet_args`` draws them."""
    data = bytearray(room + off + 24)
    data[room + 12:room + 14] = (0x0800).to_bytes(2, "big")
    data[room + off + 2:room + off + 4] = (80).to_bytes(2, "big")
    head_len = total if head_len is None else head_len
    m = Mbuf(data, room, head_len, PacketHeader(total))
    if head_len < total:
        m.next = Mbuf(data, room + head_len, total - head_len)
    return m


class TestFlowCacheEquivalence:
    @given(_ops)
    @settings(max_examples=150, deadline=None)
    # A contained inline handler failure, under generated code.
    @example([("install", ("none", "failing", "inline")),
              ("burst", (0, 3)), ("send", 1)])
    # A guard-only step uninstalls a later handle mid-scan.
    @example([("install", ("uninstalls", "plain", "thread")),
              ("install", ("none", "plain", "inline")), ("send", 0)])
    # A compiled scan raised with no kernel path open.
    @example([("install", ("none", "plain", "inline")),
              ("burst", (0, 3)), ("outside", 0)])
    # A runt frame whose store still holds a matching type field.
    @example([("install_data", ("link", filters.ethertype_guard(0x0800),
                                "plain", "inline")),
              ("packet", ("link", ("nic0", _frame(total=13))))])
    # A head link shorter than the header: the guard is called, and fails.
    @example([("install_data", ("tcp", filters.tcp_port_guard([80]),
                                "plain", "inline")),
              ("packet", ("tcp", (_frame(head_len=30), 20, 1, 2)))])
    # Not an mbuf, though it has an mbuf's attributes: the guard decides.
    @example([("install_data", ("link", filters.ethertype_guard(0x0800),
                                "plain", "inline")),
              ("packet", ("link", ("nic0", _Impostor(_frame()._storage))))])
    # Headroom before the frame, and a negative offset.
    @example([("install_data", ("tcp", filters.tcp_port_guard([80]),
                                "plain", "inline")),
              ("packet", ("tcp", (_frame(room=3), 20, 1, 2))),
              ("packet", ("tcp", (_frame(), -1, 1, 2)))])
    # A TCP exclusion set changes between two raises, with no install.
    @example([("install_data", ("tcp", "tcp_standard", "plain", "inline")),
              ("packet", ("tcp", (_frame(), 20, 1, 2))),
              ("live", (1, 80)),
              ("packet", ("tcp", (_frame(), 20, 1, 2)))])
    def test_ladder_rungs_are_equivalent(self, ops):
        compiled, linear = (_Side(mode) for mode in MODES)
        for op, arg in ops:
            compiled.apply(op, arg)
            linear.apply(op, arg)

        # Identical delivery: same handlers, same packets, same order.
        assert linear.log == compiled.log
        # Bit-identical simulated time and cost accounting.
        assert linear.engine.now == compiled.engine.now
        assert (dict(linear.kernel.cpu.category_times)
                == dict(compiled.kernel.cpu.category_times))
        # Identical per-handle statistics and errors.
        assert len(linear.handles) == len(compiled.handles)
        for lh, ch in zip(linear.handles, compiled.handles):
            assert lh.installed == ch.installed
            assert lh.invocations == ch.invocations
            assert lh.guard_rejections == ch.guard_rejections
            assert lh.failures == ch.failures
            assert lh.terminations == ch.terminations
            assert type(lh.last_error) is type(ch.last_error)
        assert (linear.dispatcher.total_invocations
                == compiled.dispatcher.total_invocations)
        assert (linear.dispatcher.total_raises
                == compiled.dispatcher.total_raises)
        # Identical metrics snapshot outside the compile count.
        assert linear.metrics() == compiled.metrics()
        # The same results, or the same error, outside a kernel path.
        assert linear.outcomes == compiled.outcomes
        # Every injected failure and termination is contained and counted.
        for side in (compiled, linear):
            assert (side.dispatcher.total_failures
                    == side.injected_failures + side.data_guard_failures())
            assert (side.dispatcher.total_terminations
                    == side.injected_terminations)
