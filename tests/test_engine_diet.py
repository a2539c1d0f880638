"""The engine diet: a zero-delay event must be justified by a waiter or
by another entry due at the same instant, hardware runs on callbacks,
not processes, a clean hop is one heap entry, the CPU is a run queue,
and the run loop counts nothing.

Pins what was removed from the per-frame path -- process bootstraps,
completions nobody waits on, uncontended grants, the NIC's blocking queue
hand-off, every per-frame ``Process`` (interrupt kernel paths, NIC
drains, link lanes, switch ports), the fixed-delay relays of a clean
lane and of the switch, a contended CPU's grant entry when nothing else
is due at the release, and an interrupt path's bootstrap entry when
nothing else is due at the interrupt -- so that an abstraction hop
creeping back in is a red test; checks the ``KernelPath`` continuation
and the CPU's run queue against the generator kernel path on a
``Resource`` they replaced, the merged media against the relay media
they replaced, and the Ethernet bus's and the disk's FIFO lanes against
the ``Resource`` they replaced; checks that ``events_processed`` is the
number of entries popped; and states where an exception surfaces now
that hardware is heap callbacks.

``Resource`` lives here, not in ``repro.sim``: it is the reference model
those oracles stand on, and no simulated device uses it.
"""

import heapq
import inspect
import sys
from collections import Counter, deque
from types import SimpleNamespace
from typing import List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.bench.testbed as testbed
import repro.sim.engine as engine_module
from repro.bench.testbed import build_testbed
from repro.chaos.invariants import INVARIANTS
from repro.core import Credential
from repro.fabric.topology import fat_tree
from repro.hw import (Disk, EthernetSegment, LanceEthernet,
                      PointToPointLink, Switch, SwitchPort, T3Nic)
from repro.hw.cpu import INTERRUPT_PRIORITY, THREAD_PRIORITY, ChargeError
from repro.hw.host import Host
from repro.hw.link import Frame, ImpairmentConfig, transmission_time_us
from repro.lang import ephemeral
from repro.net.headers import ip_aton
from repro.obs import MetricsRegistry
from repro.sim import Engine, Event, Process, Signal, SimulationError
from repro.sim.engine import _PENDING, _fire

from test_hw_link_nic import make_host_nic


# ---------------------------------------------------------------------------
# the reference model: the generic resource the lanes replaced
# ---------------------------------------------------------------------------

class ResourceRequest(Event):
    """Event representing one pending acquisition of a :class:`Resource`.

    Fires (succeeds) when the resource grants the request.  The holder must
    eventually call :meth:`release`.
    """

    __slots__ = ("resource", "priority", "granted_at", "_released")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__, inlined: one request is created per CPU hold.
        self.engine = resource.engine
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.resource = resource
        self.priority = priority
        self.granted_at: Optional[float] = None
        self._released = False

    def release(self) -> None:
        if self._released:
            raise SimulationError("resource request released twice")
        self._released = True
        if self.granted_at is not None:
            self.resource.release()
        # else cancelled while queued: _grant_waiters skips released requests.


class Resource:
    """A counted resource with a priority FIFO wait queue.

    Lower ``priority`` values are served first; ties are FIFO.  Grants are
    *non-preemptive*: once a request is granted it holds a unit of capacity
    until released.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._sequence = 0
        self._waiting: List[Tuple[int, int, ResourceRequest]] = []

    def try_acquire(self) -> bool:
        """Take a unit right now if nobody is ahead: :meth:`request` minus
        the request object and the grant event.  Hold sites fall back to
        ``yield resource.request(priority)`` when this returns False, and
        give the unit back with :meth:`release` either way."""
        if not self._waiting and self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def request(self, priority: int = 0) -> ResourceRequest:
        """Return a request event; yield it to wait for the grant."""
        req = ResourceRequest(self, priority)
        self._sequence += 1
        heapq.heappush(self._waiting, (priority, self._sequence, req))
        self._grant_waiters()
        return req

    def _grant_waiters(self) -> None:
        while self._waiting and self.in_use < self.capacity:
            _prio, _seq, req = heapq.heappop(self._waiting)
            if req._released:  # cancelled while queued
                continue
            self.in_use += 1
            req.granted_at = self.engine.now
            # Granted with None, not the request: an event whose value is
            # itself is a cycle only the (quiesced) cyclic GC can free.
            req.succeed()

    def release(self) -> None:
        """Give back one unit (however it was taken); grant the next waiter."""
        if self.in_use <= 0:
            raise SimulationError("release on a resource with nothing in use")
        self.in_use -= 1
        if self._waiting:
            self._grant_waiters()


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
    ("frame_arrived", True): "rx latency",
    ("start", False): "kernel-path bootstrap",
    ("ping_loop", False): "reply wakeup",
}


def _ping_pong(trips=6, medium="ethernet"):
    """A SPIN UDP ping-pong: ``(bed, ping_loop, trip_marks)``.

    ``ping_loop`` sends ``trips`` 8-byte pings, each from a kernel path the
    loop waits on, and waits for the reply; ``trip_marks`` collects
    ``engine.events_processed`` as each reply arrives."""
    bed = build_testbed("spin", medium, deliver_mode="interrupt")
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


#: What a switched frame no longer pushes: the clean uplink's wire-end
#: relay, the forwarding-latency relay, the egress lane's wire-end relay
#: and, when the egress lane was busy, the grant that handed it over.
_RELAYS = frozenset({"_lane_sent", "_forward", "_forward_sent", "_fire"})


def _steady_trip_budget(medium, names=_EVENT_NAMES):
    """Heap entries a steady ping-pong trip on ``medium`` runs, folded
    by ``names``: ``(per-trip table, entries of the last trip)``."""
    bed, ping_loop, trips = _ping_pong(medium=medium)
    engine = bed.engine
    process = engine.process(ping_loop())
    folded = Counter()
    while process.is_alive:
        site = _next_entry(engine)
        if len(trips) >= 2:     # ARP and cold caches are behind us
            folded[names.get(site, site[0])] += 1
        engine.step()
    steady_trips = len(trips) - 2
    return ({name: count / steady_trips for name, count in folded.items()},
            trips[-1] - trips[-2])


def _steady_fat_tree_frame():
    """A ``fat_tree(4)`` engine whose heap holds exactly one steady
    64-byte UDP frame from host 0 to 10.2.0.2 (across the core): two
    cold frames, sent apart, have already crossed, so every ARP entry,
    table and compiled scan is warm."""
    bed = fat_tree(4)
    engine = bed.engine
    endpoint = bed.stacks[0].udp_manager.bind(
        Credential("tx"), 9001, ephemeral(lambda *args: None))
    host = bed.hosts[0]

    def send(_arg) -> None:
        host.spawn_kernel_path(lambda: endpoint.send(
            bytes(64), ip_aton("10.2.0.2"), 9000))
    for index in range(3):      # apart: each frame crosses alone
        engine.call_at(1_000.0 * (index + 1), send)
    engine.run(until=2_500.0)   # the cold frames are behind us
    return engine


#: One steady switch hop on ``fat_tree(4)``, by Python call
#: (``co_qualname``), from the landing at the switch's port to the egress
#: frame's own landing being pushed.  A hop up toward the core also
#: calls ``ecmp_select`` after ``SwitchHost._emit``.  The rx latency, the
#: CPU hold and the lane's landing are pushed in place: no
#: ``Engine.call_after`` / ``call_at`` frame.  The raise is the call into
#: the compiled scan, both chains are booked in the switch's own frames
#: and the pipeline serves its route-cache hit itself: no
#: ``Dispatcher.raise_event``, ``MbufPool.charge_chain``, table ``lookup``
#: or ``ForwardingTable.lookup`` frame.
_SWITCH_HOP_CALLS = [
    # the landing: the port's NIC admits the frame to its ring, and the
    # sender's NIC, whose lane is free again, finds its queue empty
    "_Medium._deliver", "NIC.frame_on_wire", "NIC._drain",
    # the interrupt, in its own entry: the path starts right there
    "Host.frame_arrived", "KernelPath.__init__", "Engine.due_now",
    "KernelPath.start", "Host.interrupt_body",
    # the pipeline: device input, one raise, one parse, the egress stage
    "SwitchHost._device_input", "_factory.<locals>._compiled",
    "SwitchHost._pipeline", "PacketFields.__init__", "SwitchHost._emit",
    "NIC.stage_tx", "FabricNic.wire_bytes", "Frame.__init__",
    # the hold's entry: the idle egress NIC puts the frame on its lane
    "KernelPath._held", "NIC.stage_tx.<locals>.enqueue",
    "PointToPointLink.transmit", "_Medium._send_on_lane",
]


#: One steady UDP frame of 8 bytes between two SPIN hosts on the
#: Ethernet bus, by Python call, from the endpoint's send to the end of
#: the receiver's interrupt.  IP sends through ``ArpProto`` itself, which
#: serves a fresh cache entry in its own frame; the link hands the NIC
#: the packet's window, which ``stage_tx`` copies once; the idle bus
#: pushes its wire end in place at ``transmit``, and books the frame at
#: wire end in its own frame: no ``EthernetAdapter.send``,
#: ``ArpProto._lookup``, ``Mbuf.to_bytes``, ``EthernetSegment._occupy``,
#: ``Engine.call_after``, ``_Medium._wire_time_us`` or ``_Medium._account``.
#: The pool books each allocation's charge in ``MbufPool.from_bytes``, and
#: UDP folds the pseudo-header into the checksum's ``initial`` as one sum
#: of the whole addresses: no ``MbufPool._charge_alloc`` or
#: ``pseudo_header_sum`` frame, on either side (43 calls from the send on;
#: 47 with those four, 54 with the relays before them).
_ETHERNET_FRAME_CALLS = [
    # the sender's kernel path: UDP, IP, ARP, Ethernet, the driver
    "UdpEndpoint.send", "MbufPool.from_bytes", "Mbuf.__init__",
    "UdpProto.output", "Mbuf.push", "internet_checksum", "IpProto.output",
    "IpProto._prepend_header", "Mbuf.push", "ArpProto.send",
    "EthernetProto.output", "Mbuf.push", "NIC.stage_tx",
    "LanceEthernet.wire_bytes", "Frame.__init__",
    # the hold's entry: the idle NIC puts the frame on the idle bus
    "KernelPath._held", "NIC.stage_tx.<locals>.enqueue",
    "EthernetSegment.transmit",
    # the wire end: the bus is free, the sender's queue is empty
    "EthernetSegment._bus_sent", "NIC._drain",
    # the landing, then the interrupt in the rx latency's entry
    "_Medium._deliver", "NIC.frame_on_wire",
    "Host.frame_arrived", "KernelPath.__init__", "Engine.due_now",
    "KernelPath.start", "Host.interrupt_body",
    # the receiver's graph: three compiled raises, up to the handler
    "EthernetProto.input", "MbufPool.from_bytes", "Mbuf.__init__",
    "PlexusStack._wire_graph.<locals>.link_upcall",
    "_factory.<locals>._compiled",
    "PlexusStack._wire_graph.<locals>.eth_ip_handler", "IpProto.input",
    "PlexusStack._wire_graph.<locals>.ip_upcall", "_factory.<locals>._compiled",
    "PlexusStack._wire_graph.<locals>.ip_udp_handler", "UdpProto.input",
    "internet_checksum",
    "PlexusStack._wire_graph.<locals>.udp_upcall", "_factory.<locals>._compiled",
    "_discard", "KernelPath._held",
]


@ephemeral
def _discard(*_args):
    """A UDP handler that keeps nothing."""


def _steady_ethernet_frame():
    """A SPIN Ethernet engine whose heap holds exactly one steady 8-byte
    UDP frame from host 0 to host 1: two cold frames, sent apart, have
    already crossed, so the ARP entry and every compiled scan is warm."""
    bed = build_testbed("spin", "ethernet")
    engine = bed.engine
    bed.stacks[1].udp_manager.bind(Credential("rx"), 9000, _discard)
    endpoint = bed.stacks[0].udp_manager.bind(Credential("tx"), 9001,
                                              _discard)
    dst = bed.ip(1)

    def send(_arg) -> None:
        bed.hosts[0].spawn_kernel_path(endpoint.send, (bytes(8), dst, 9000))
    for index in range(3):      # apart: each frame crosses alone
        engine.call_at(10_000.0 * (index + 1), send)
    engine.run(until=25_000.0)  # the cold frames are behind us
    return engine


#: One steady UNIX ``UdpSocket.sendto`` of 8 bytes on the ATM bed, by
#: Python call, from the call to the resumption of the process that made
#: it.  The trap, socket-layer and copyin charges are booked in the
#: syscall's own frames, the pool builds the packet in its own frame, IP
#: serves its route-cache hit itself and reads the adapter's ``mtu``
#: attribute, its header checksum is arithmetic on the fields it packs,
#: the link hands the NIC the packet's window, and the hold and the
#: lane's landing are pushed in place: no ``CPU.charge``, no
#: ``Mbuf.from_bytes``, no ``IpProto.route_for`` or ``RawLinkProto.mtu``,
#: no ``Mbuf.to_bytes``, no ``Engine.call_after`` / ``call_at`` and no
#: second ``internet_checksum``.  The pool books the allocation's charge
#: in ``MbufPool.from_bytes`` and UDP folds the pseudo-header into the
#: checksum's ``initial`` itself: no ``MbufPool._charge_alloc`` or
#: ``pseudo_header_sum``.  24 calls (26 with those two, 27 with
#: ``Mbuf.to_bytes``, 28 while IP summed its header's bytes, 30 while IP
#: called both, 37 before that).
_UNIX_SENDTO_CALLS = [
    "UdpSocket.sendto", "_SocketBase._syscall", "Host.kernel_path",
    "KernelPath.__init__", "KernelPath.start",
    "_SocketBase._syscall.<locals>.body", "UdpSocket.sendto.<locals>.work",
    "MbufPool.from_bytes", "Mbuf.__init__",
    "UdpProto.output", "Mbuf.push", "internet_checksum",
    "IpProto.output", "IpProto._prepend_header", "Mbuf.push",
    "RawLinkProto.send", "NIC.stage_tx",
    "ForeAtm.wire_bytes", "Frame.__init__",
    # the hold's entry: the flush puts the frame on the idle uplink
    "KernelPath._held", "NIC.stage_tx.<locals>.enqueue",
    "SwitchPort.transmit", "_Medium._send_on_lane", "Process._resume",
]


class TestEventBudget:
    def test_udp_round_trip_is_ten_named_events(self):
        """Nine entries advance simulated time (3 CPU holds: client send,
        server interrupt, client interrupt; 2 wire times; 2 propagations;
        2 rx latencies).  One zero-delay hop remains, and it has a
        reason: the client's ``Signal`` waiter is a real waiter.  The two
        interrupt kernel paths start inside their rx-latency entries (it
        was 12 with their bootstraps): nothing else is due at the instant
        a steady trip's interrupt is raised.  The client's own send path
        completes inside its hold's entry: no hop.  The bus keeps its
        wire-end entry: it is released and re-arbitrated there."""
        assert _steady_trip_budget("ethernet") == ({
            "cpu hold": 3,
            "wire time": 2,
            "propagation": 2,
            "rx latency": 2,
            "reply wakeup": 1,
        }, 10)

    def test_atm_switched_trip_is_ten_named_events(self, monkeypatch):
        """The same trip through the ATM switch: each frame is one
        uplink landing (wire + propagation, pushed at transmit) and one
        egress landing (forwarding latency + egress wire + propagation,
        pushed at accept).  Against the relay switch it is 16: each of
        the two frames also pushed ``_lane_sent`` (the clean uplink's
        wire end), ``Switch._forward`` (the forwarding latency) and
        ``_forward_sent`` (the egress wire end)."""
        names = dict(_EVENT_NAMES)
        names[("_deliver", True)] = "uplink landing"
        names[("_forward_landed", True)] = "egress landing"
        merged, merged_trip = _steady_trip_budget("atm", names)
        assert (merged, merged_trip) == ({
            "cpu hold": 3,
            "uplink landing": 2,
            "egress landing": 2,
            "rx latency": 2,
            "reply wakeup": 1,
        }, 10)
        monkeypatch.setattr(testbed, "Switch", _RelaySwitch)
        relayed, relayed_trip = _steady_trip_budget("atm", names)
        assert Counter(relayed) - Counter(merged) == {
            "_lane_sent": 2, "_forward": 2, "_forward_sent": 2}
        assert relayed_trip == 16

    def test_fat_tree_hop_is_three_named_events(self, monkeypatch):
        """One UDP frame across the core crosses six point-to-point
        links.  Each hop is three entries: the landing (wire +
        propagation, pushed at transmit), the receiving NIC's rx
        latency, in which the switch's (or the receiver's) interrupt
        kernel path starts, and that path's CPU hold.  The sender adds
        its own send entry, the bootstrap of the path it spawns, and its
        hold.  Each hop was five: ``_lane_sent``, the clean lane's
        wire-end relay, and the interrupt path's bootstrap are gone."""
        names = dict(_EVENT_NAMES)
        names[("_deliver", True)] = "landing"

        def frame_budget():
            engine = _steady_fat_tree_frame()
            folded = Counter()
            while engine._heap:
                site = _next_entry(engine)
                folded[names.get(site, site[0])] += 1
                engine.step()
            return folded

        merged = frame_budget()
        assert merged == {"send": 1, "kernel-path bootstrap": 1,
                          "cpu hold": 7, "landing": 6, "rx latency": 6}
        monkeypatch.setattr(PointToPointLink, "_send_on_lane",
                            _RelayLane._send_on_lane)
        assert frame_budget() - merged == {"_lane_sent": 6}

    def test_a_steady_switch_hop_is_twenty_calls(self):
        """The call row of the budget: one frame across the fat tree is
        150 Python calls (155 while each switch hop called a match-action
        table's ``lookup``; 159 while the sender and the receiver each called
        ``MbufPool._charge_alloc`` under ``MbufPool.from_bytes`` and
        ``pseudo_header_sum`` under their UDP checksum; 160 while the
        sender's link called
        ``Mbuf.to_bytes``; 162 while IP summed its header's bytes through
        ``internet_checksum`` on output and input; 191 while a raise went through
        ``Dispatcher.raise_event``, a switch hop through
        ``MbufPool.charge_chain`` and ``ForwardingTable.lookup``, the
        sender through ``_charge_send_raise``, ``CPU.charge``,
        ``IpProto.route_for`` and ``RawLinkProto.mtu``, and the receiver
        through ``Mbuf.freeze`` and ``IpProto.accepts``; 213 while the
        hot heap pushes went through ``Engine.call_after`` / ``call_at``;
        218 while a packet was a chain with a ``PacketHeader``, and the
        layers called ``Mbuf.length``; 271 before the per-frame
        delegations were folded), and each of its five switch hops is
        the 20 calls of
        ``_SWITCH_HOP_CALLS`` (21 with the table's ``lookup``; 25 with
        the raise's, the two chain charges' and the LPM hit's frames; 28
        with the rx latency's, the hold's and
        the landing's scheduling frames; 37 before: ``_raise_interrupt``,
        ``driver_recv_charges``, ``CPU.charge`` and two
        ``_charge_alloc`` under the pipeline, ``Host.defer``, the idle
        NIC's enqueue-then-``_drain``, ``peer_of`` and ``_account``)."""
        engine = _steady_fat_tree_frame()
        calls = []

        def on_event(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)
        sys.setprofile(on_event)
        try:
            engine.run()
        finally:
            sys.setprofile(None)
        assert len(calls) == 150
        starts = [at for at, name in enumerate(calls)
                  if name == "_Medium._deliver"]
        assert len(starts) == 6         # five switches, then the receiver
        up = list(_SWITCH_HOP_CALLS)
        up.insert(up.index("SwitchHost._emit") + 1, "ecmp_select")
        hops = [calls[a:b] for a, b in zip(starts, starts[1:])]
        assert hops == [up, up] + [_SWITCH_HOP_CALLS] * 3

    def test_a_steady_ethernet_frame_has_no_relay_calls(self):
        """The Ethernet row of the budget: after the bootstrap of the
        sender's kernel path, one frame is ``_ETHERNET_FRAME_CALLS``."""
        engine = _steady_ethernet_frame()
        calls = []

        def on_event(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)
        sys.setprofile(on_event)
        try:
            engine.run()
        finally:
            sys.setprofile(None)
        sent = calls.index("UdpEndpoint.send")
        assert calls[:sent] == [
            "Engine.run", "_steady_ethernet_frame.<locals>.send",
            "Host.spawn_kernel_path", "KernelPath.__init__",
            "Engine.call_after", "KernelPath.start"]
        assert calls[sent:] == _ETHERNET_FRAME_CALLS

    def test_a_steady_unix_sendto_books_in_place(self):
        """The syscall row of the budget: ``_UNIX_SENDTO_CALLS``."""
        bed = build_testbed("unix", "atm")
        sock = bed.sockets[0].udp_socket()
        dst = (bed.ip(1), 7000)

        def warm():
            yield from sock.bind(7001)
            yield from sock.sendto(bytes(8), dst)
        bed.engine.run_process(warm())
        bed.engine.run()
        calls = []

        def on_event(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)

        def steady():
            sys.setprofile(on_event)
            try:
                yield from sock.sendto(bytes(8), dst)
            finally:
                sys.setprofile(None)
        bed.engine.run_process(steady())
        resumed = calls.index("Process._resume") + 1
        assert calls[:resumed] == _UNIX_SENDTO_CALLS
        # Then only the resumed generators' frames, down to the syscall.
        assert calls[resumed:] == [steady.__qualname__, "UdpSocket.sendto",
                                   "Host.kernel_path"]

    def test_contended_switched_frame_is_two_entries(self):
        """Frames queued on one busy egress lane cost no more than clean
        ones: an uplink landing and an egress landing each.  The relay
        switch also pushed ``_lane_sent``, ``_forward`` and
        ``_forward_sent`` per frame, plus a grant (``_fire``) for every
        frame that found the lane busy."""
        senders = 4
        sends = [(0.0, index, 0, 64) for index in range(1, senders + 1)]
        merged = _switch_run(Switch, sends, senders + 1)
        relayed = _switch_run(_RelaySwitch, sends, senders + 1)
        assert Counter(name for _t, name in merged["trace"]) == {
            "send": senders, "_deliver": senders,
            "_forward_landed": senders}
        assert (Counter(name for _t, name in relayed["trace"])
                - Counter(name for _t, name in merged["trace"])) == {
            "_lane_sent": senders, "_forward": senders,
            "_forward_sent": senders, "_fire": senders - 1}
        landings = [now for now, *_ in merged["seen"][0]]
        wire = transmission_time_us(64, _EXACT_BPS)
        assert [b - a for a, b in zip(landings, landings[1:])] == [
            wire] * (senders - 1)

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

    def test_an_uncontended_charged_path_is_two_frames(self, engine):
        """The frame row of the budget: a kernel path is built, started
        and run in one frame (``start``), and ended in its hold's entry
        (``_held``), which hands the CPU over, flushes and completes.
        Around the ``fn`` it exists to run and the charge it makes, the
        only other Python calls are the spawn's zero-delay bootstrap push
        and the ``CategoryTimes.__missing__`` read of the fresh CPU's
        first ``kernel`` charge: ``start`` pushes the hold in place.
        (The hold's ``call_after``, the run queue's ``acquire`` /
        ``release``, a separate ``_run`` and a separate ``_complete``
        were five more.)"""
        host = Host(engine, "h")
        calls = []

        def on_event(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        def fn():
            host.cpu.charge(2.0)
        sys.setprofile(on_event)
        try:
            host.spawn_kernel_path(fn)
            engine.run()
        finally:
            sys.setprofile(None)
        assert calls == ["spawn_kernel_path", "__init__", "call_after",
                         "run", "start", "fn", "charge", "__missing__",
                         "_held"]
        assert engine.now == 2.0 and not host.cpu.held


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

def _reference_kernel_path(host, resource, fn, args=(),
                           priority=THREAD_PRIORITY):
    """The generator kernel path ``KernelPath`` replaced, kept as the
    oracle: it holds ``resource``, a ``Resource(engine)`` standing for the
    CPU as it was before the run queue, and is granted through a
    ``ResourceRequest`` event (its hold was a recycled pooled timeout;
    ``engine.timeout`` is the same heap entry)."""
    cpu = host.cpu
    if not resource.try_acquire():
        yield resource.request(priority)
    try:
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
                for on_consume in profile.on_consume:
                    on_consume(profile, amount)
    finally:
        # A path that raises releases the CPU too.
        resource.release()
    for action in deferred:
        action()
    return result


class _ProfileLog:
    """A ``cpu.profile`` that logs what a kernel path tells it, and when:
    its frames through ``push`` / ``pop``, its consumption through the
    one listener in ``on_consume``."""

    def __init__(self, engine, log):
        self.engine = engine
        self.log = log
        self.on_consume = (self._consumed,)

    def push(self, label):
        self.log.append(("push", label, self.engine.now))

    def pop(self):
        self.log.append(("pop", self.engine.now))

    def _consumed(self, profile, amount):
        assert profile is self
        self.log.append(("consumed", amount, self.engine.now))


def _continuation(host):
    """(spawn, wait-on, is the CPU held?) with ``KernelPath``s."""
    return (lambda fn, priority: host.spawn_kernel_path(fn, priority=priority),
            lambda fn, priority: host.kernel_path(fn, priority=priority),
            lambda: host.cpu.held)


def _reference(host):
    """(spawn, wait-on, is the CPU held?) with the generator oracle."""
    resource = Resource(host.engine)
    return (lambda fn, priority: host.engine.process(
                _reference_kernel_path(host, resource, fn, (), priority)),
            lambda fn, priority: _reference_kernel_path(
                host, resource, fn, (), priority),
            lambda: resource.in_use == 1)


def _cpu_schedule(jobs, paths):
    """Run ``jobs`` on one CPU with the kernel paths ``paths(host)``
    makes; ``(everything observable about the schedule, events)``."""
    engine = Engine()
    host = Host(engine, "h")
    spawn, wait_on, held = paths(host)
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
                    body(-index - 1, 1.0, 1, False), INTERRUPT_PRIORITY))
            return index
        fn.__name__ = "job%d" % index
        return fn

    def job(index, arrival, waited, priority, charge, n_deferred, followup):
        yield engine.timeout(arrival)
        # Logged so a grant run before an entry due at its instant shows.
        log.append(("arrived", index, engine.now))
        fn = body(index, charge, n_deferred, followup)
        if waited:
            result = yield from wait_on(fn, priority)
            log.append(("returned", index, result, engine.now))
        else:
            spawn(fn, priority)

    for index, spec in enumerate(jobs):
        engine.process(job(index, *spec))
    engine.run()
    return ((log, host.cpu.busy_time, held(), engine.now),
            engine.events_processed)


class TestKernelPathOracle:
    @given(st.lists(st.tuples(st.integers(0, 8), st.booleans(),
                              st.sampled_from([INTERRUPT_PRIORITY,
                                               THREAD_PRIORITY]),
                              st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]),
                              st.integers(0, 2), st.booleans()),
                    min_size=1, max_size=12))
    # Found when the zero-charge completion in KernelPath.start was cut:
    # three spawned zero-charge paths, then a waited-on one, then one
    # more, all at t=0.
    @example([(0, False, INTERRUPT_PRIORITY, 0.0, 0, False)] * 3
             + [(0, True, INTERRUPT_PRIORITY, 0.0, 0, False),
                (0, False, INTERRUPT_PRIORITY, 0.0, 0, False)])
    @settings(max_examples=200, deadline=None)
    def test_same_schedule_as_the_generator_path(self, jobs):
        """Spawned and waited-on paths with random arrivals, priorities,
        charges (zero included), deferred actions and follow-up interrupt
        paths spawned from a deferred action: grant order and times, the
        profile's push/pop/consumed stream, deferred-action and completion
        order, ``busy_time`` and the held state all equal the generator
        kernel path's.  The run queue only ever saves entries: a grant
        runs inside the hold that freed the CPU when nothing else is due
        at that instant."""
        schedule, events = _cpu_schedule(jobs, _continuation)
        reference, reference_events = _cpu_schedule(jobs, _reference)
        assert schedule == reference
        assert events <= reference_events

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
        """The path queued for a busy CPU: ``fn`` runs when the hold that
        freed the CPU ends, and its exception is thrown into the waiting
        process there, not out of ``engine.step``."""
        host = Host(engine, "h")
        host.spawn_kernel_path(lambda: host.cpu.charge(5.0))

        def kernel_bug():
            raise KeyError("kernel bug")

        def proc():
            yield engine.timeout(1.0)
            assert host.cpu.held
            with pytest.raises(KeyError, match="kernel bug"):
                yield from host.kernel_path(kernel_bug)
            return engine.now
        assert engine.run_process(proc()) == 5.0

    def test_fn_failure_hands_the_cpu_to_the_queued_path(self, engine):
        """A path whose ``fn`` raises still releases the CPU: the path
        queued behind it runs at the same instant, from its own
        zero-delay entry, and nothing is left holding the processor.
        (The failed path used to keep the CPU, and everything queued
        behind it waited forever.)"""
        host = Host(engine, "h")
        host.spawn_kernel_path(lambda: host.cpu.charge(5.0))
        ran = []

        def kernel_bug():
            raise KeyError("kernel bug")

        def queued_second():
            ran.append(engine.now)
            host.cpu.charge(2.0)
        engine.call_at(2.0, lambda _arg: host.spawn_kernel_path(queued_second))

        def proc():
            yield engine.timeout(1.0)
            with pytest.raises(KeyError, match="kernel bug"):
                yield from host.kernel_path(kernel_bug)
            return engine.now
        assert engine.run_process(proc()) == 5.0
        engine.run()
        assert ran == [5.0]
        assert not host.cpu.held and host.cpu.busy_time == 7.0

    def test_charged_failure_holds_the_cpu_then_raises(self, engine):
        """A path that charges and then raises holds the CPU for its
        charge and flushes its deferred actions before the exception
        reaches its waiter."""
        host = Host(engine, "h")
        flushed = []

        def kernel_bug():
            host.cpu.charge(3.0)
            host.defer(lambda: flushed.append(engine.now))
            raise KeyError("kernel bug")

        def proc():
            with pytest.raises(KeyError, match="kernel bug"):
                yield from host.kernel_path(kernel_bug)
            return engine.now
        assert engine.run_process(proc()) == 3.0
        assert flushed == [3.0]
        assert host.cpu.busy_time == 3.0 and not host.cpu.held

    def test_charged_failure_with_no_waiter_leaves_run(self, engine):
        """With no waiter the exception leaves ``run()`` at the end of the
        hold, and the path queued behind it still gets the CPU."""
        host = Host(engine, "h")
        ran = []

        def kernel_bug():
            host.cpu.charge(4.0)
            raise KeyError("kernel bug")

        def queued_second():
            ran.append(engine.now)
            host.cpu.charge(1.0)
        host.spawn_kernel_path(kernel_bug)
        engine.call_at(2.0, lambda _arg: host.spawn_kernel_path(queued_second))
        with pytest.raises(KeyError, match="kernel bug"):
            engine.run()
        assert engine.now == 4.0 and host.cpu.busy_time == 4.0
        engine.run()
        assert ran == [4.0]
        assert not host.cpu.held and host.cpu.busy_time == 5.0

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
                    engine.pending_count(), host.cpu.held)
        assert engine.run_process(proc()) == ("free", 0, 0, False)
        assert flushed == [0.0]

    def test_charged_path_costs_one_hold_and_resumes_in_it(self, engine):
        host = Host(engine, "h")

        def proc():
            before = engine.events_processed
            yield from host.kernel_path(lambda: host.cpu.charge(2.5))
            return engine.now, engine.events_processed - before
        assert engine.run_process(proc()) == (2.5, 1)
        assert host.cpu.busy_time == 2.5


class TestRunQueue:
    """A path that finds the CPU busy waits in the run queue; handing it
    the CPU costs a heap entry only when something else is due at the
    instant of the release."""

    @staticmethod
    def _pair(engine, log):
        """Two 2 us paths spawned at one instant on one CPU."""
        host = Host(engine, "h")

        def body(tag):
            def fn():
                log.append((tag, engine.now))
                host.cpu.charge(2.0)
            return fn
        host.spawn_kernel_path(body("first"))
        host.spawn_kernel_path(body("second"))
        return host

    def test_a_queued_path_runs_inside_the_hold_that_freed_the_cpu(
            self, engine):
        log = []
        host = self._pair(engine, log)
        registry = MetricsRegistry()
        host.cpu.register_metrics(registry)
        assert _traced(engine) == [(0.0, "start"), (0.0, "start"),
                                   (2.0, "_held"), (4.0, "_held")]
        assert log == [("first", 0.0), ("second", 2.0)]
        assert engine.events_processed == 4
        assert not host.cpu.held and host.cpu.busy_time == 4.0
        assert registry.snapshot()["hw.cpu.paths_queued"]["value"] == 1

    def test_an_entry_due_at_the_release_keeps_the_grant_entry(
            self, engine):
        """The grant claims its sequence number at the release, so the
        entry already due at that instant runs first, then the grant."""
        log = []
        self._pair(engine, log)

        def due(_arg):
            log.append(("due", engine.now))
        # Pushed after the first path's hold: due at its end, and later
        # in sequence than it.
        engine.call_after(0.0, lambda _arg: engine.call_at(2.0, due))
        assert _traced(engine) == [
            (0.0, "start"), (0.0, "start"), (0.0, "<lambda>"),
            (2.0, "_held"), (2.0, "due"), (2.0, "start"), (4.0, "_held")]
        assert log == [("first", 0.0), ("due", 2.0), ("second", 2.0)]


class TestInterruptStart:
    """An interrupt's kernel path starts inside the NIC entry that raised
    it, which it ends; it costs a zero-delay bootstrap entry only when
    another entry is due at that instant, and then runs after it."""

    @staticmethod
    def _raise(due_after):
        """One frame reaches a host's NIC at 0; with ``due_after``, an
        entry due at the interrupt's instant is pushed after it."""
        engine = Engine()
        host = Host(engine, "h")
        nic = T3Nic(engine, "t3", "addr")
        host.add_nic(nic)
        log = []
        host.register_device_input(
            nic, lambda _nic, _data: log.append(("interrupt", engine.now)))
        raised_at = nic.profile.rx_latency_us

        def due(_arg):
            log.append(("due", engine.now))

        def arrive(_arg):
            nic.frame_on_wire(Frame(b"x", "peer", "addr", wire_bytes=64))
            if due_after:
                engine.call_at(raised_at, due)
        engine.call_at(0.0, arrive)
        trace = _traced(engine)
        assert host.interrupts_handled == 1 and not host.cpu.held
        return [name for _when, name in trace], log, raised_at

    def test_nothing_due_starts_the_path_in_the_raising_entry(self):
        trace, log, raised_at = self._raise(due_after=False)
        assert trace == ["arrive", "frame_arrived", "_held"]
        assert log == [("interrupt", raised_at)]

    def test_an_entry_due_at_the_interrupt_keeps_the_bootstrap(self):
        """The entry pushed after the interrupt's, at its instant, runs
        before the interrupt body, as it did when every interrupt path
        had a bootstrap entry."""
        trace, log, raised_at = self._raise(due_after=True)
        assert trace == ["arrive", "frame_arrived", "due", "start",
                         "_held"]
        assert log == [("due", raised_at), ("interrupt", raised_at)]


# ---------------------------------------------------------------------------
# the run loop counts nothing
# ---------------------------------------------------------------------------

def _timers_and_paths(engine):
    """Spawned kernel paths, a process that waits on one, and six timers
    of which every other one -- the last included -- is cancelled.
    ``(host, log, process generator)``."""
    host = Host(engine, "h")
    log = []

    def body(tag, charge):
        def fn():
            log.append((tag, engine.now))
            host.cpu.charge(charge)
        return fn
    for index in range(3):
        host.spawn_kernel_path(body(index, 1.5))
    timers = [host.set_timer(2.0 * (index + 1), body("t%d" % index, 0.5))
              for index in range(6)]
    for timer in timers[1::2]:
        timer.cancel()

    def proc():
        yield engine.timeout(3.0)
        yield from host.kernel_path(body("waited", 1.0))
        return engine.now
    return host, log, proc()


class TestRunLoop:
    """``run`` and ``run_process`` pop entries themselves, and
    ``events_processed`` is derived: pushes minus pending entries."""

    @pytest.fixture
    def popped(self, monkeypatch):
        """A list that gains one entry per heap pop the engine makes."""
        pops = []

        def counting_heappop(heap):
            pops.append(heap[0][2])
            return heapq.heappop(heap)
        monkeypatch.setattr(engine_module, "heappop", counting_heappop)
        return pops

    @pytest.mark.parametrize("drive", ["step", "run", "run_until",
                                       "run_process"])
    def test_events_processed_is_the_entries_popped(self, popped, drive):
        engine = Engine()
        _host, _log, process = _timers_and_paths(engine)
        if drive == "run_process":
            engine.run_process(process)
        else:
            engine.process(process)
            if drive == "step":
                while engine._heap:
                    engine.step()
            elif drive == "run":
                engine.run()
                # The last timer was cancelled: run() leaves it unpopped.
                assert len(engine._heap) == engine.cancelled_timers == 1
            else:
                engine.run(until=100.0)
                assert not engine._heap
        assert engine.events_processed == len(popped) > 0

    def test_cancelled_timers_count_when_popped(self, popped):
        engine = Engine()
        host = Host(engine, "h")
        for index in range(5):
            host.set_timer(1.0 + index, lambda: None).cancel()
        engine.run()
        assert engine.events_processed == len(popped) == 0
        engine.run(until=10.0)
        assert engine.events_processed == len(popped) == 5

    def test_a_ping_pong_bed_counts_every_pop(self, popped):
        bed, ping_loop, trips = _ping_pong(trips=4)
        bed.engine.run_process(ping_loop())
        assert len(trips) == 4
        assert bed.engine.events_processed == len(popped)
        assert trips[-1] == len(popped)

    def test_stepping_ends_in_the_same_state_as_run(self):
        def final_state(stepped):
            engine = Engine()
            host, log, process = _timers_and_paths(engine)
            engine.process(process)
            if stepped:
                while len(engine._heap) > engine.cancelled_timers:
                    engine.step()
            else:
                engine.run()
            return (log, engine.now, engine.events_processed,
                    engine.pending_count(), len(engine._heap),
                    host.cpu.busy_time, host.cpu.held)
        assert final_state(stepped=True) == final_state(stepped=False)


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

    def test_a_zero_length_queue_drops_every_frame(self, engine):
        """An idle NIC puts a staged frame straight on the wire, but only
        a frame its queue would have admitted: with no room at all,
        nothing is sent, as when every frame went through the queue."""
        link, host_a, nic_a, _host_b = self._pair(engine, tx_queue_len=0)
        engine.run_process(_send(host_a, nic_a, [bytes(64)] * 3, "addr-b"))
        engine.run()
        assert nic_a.tx_drops == 3 and link.frames_carried == 0
        assert not nic_a._draining

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
    def frame_arrived(self, arrival):
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
        assert not host.cpu.held

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


# ---------------------------------------------------------------------------
# (g) a clean hop is one heap entry: merged media against the relays
# ---------------------------------------------------------------------------

class _RelayLane:
    """The clean lane the merged one replaced, kept as the oracle: a
    wire-end entry (``_lane_sent``, which still pushes the landing for
    a frame whose model was disarmed in flight), then propagation."""

    def _send_on_lane(self, sink, frame, done):
        self.engine.call_after(self._wire_time_us(frame.wire_bytes),
                               self._lane_sent, (sink, frame, done))


class _RelayLink(_RelayLane, PointToPointLink):
    pass


class _ResourcePort(_RelayLane, SwitchPort):
    """The switch port before its egress lane was analytic: a
    ``Resource`` the switch's frames queue on, a wire-end relay that
    releases it, then propagation."""

    def __init__(self, *args):
        super().__init__(*args)
        self._to_nic = Resource(self.engine, capacity=1)

    def forward_to_nic(self, frame):
        lane = self._to_nic
        if lane.try_acquire():
            self._forward(frame)
        else:
            lane.request().callbacks.append(
                lambda _grant: self._forward(frame))

    def _forward(self, frame):
        self.engine.call_after(
            transmission_time_us(frame.wire_bytes, self.bandwidth_bps),
            self._forward_sent, frame)

    def _forward_sent(self, frame):
        self._to_nic.release()
        self.engine.call_after(self.propagation_us, self._forward_landed,
                               frame)


class _RelaySwitch(Switch):
    """The switch before it routed on arrival: a forwarding-latency
    relay, then each egress port's ``forward_to_nic``."""

    def new_port(self, propagation_us=1.0):
        return _ResourcePort(self.engine, self, self.bandwidth_bps,
                             propagation_us)

    def accept(self, frame):
        self.engine.call_after(self.forward_latency_us, self._forward, frame)

    def _forward(self, frame):
        port = self._ports.get(frame.dst_addr)
        if port is not None:
            self.frames_forwarded += 1
            port.forward_to_nic(frame)
            return
        self.frames_flooded += 1
        for addr, out_port in self._ports.items():
            if addr != frame.src_addr:
                out_port.forward_to_nic(frame)


class _RelayBus(EthernetSegment):
    """The bus before an idle bus pushed its wire end at ``transmit``:
    every flight occupies the bus through ``_occupy``, which pushes
    ``call_after(_wire_time_us(...))``."""

    def transmit(self, sender, frame, done):
        flight = (sender, frame, done)
        if self._busy:
            self._waiting.append(flight)
        else:
            self._busy = True
            self._occupy(flight)


#: 2**23 b/s: a frame of ``n`` bytes is ``n * 15625 / 16384`` us on the
#: wire, a dyadic rational, so every instant the media sum is exact and
#: two frames tie exactly when the schedule says they do -- hypothesis's
#: small integers reach real same-float ties.
_EXACT_BPS = float(2 ** 23)


class _StubNic:
    """What a medium sees of a NIC: an address, a FIFO drain that sends
    a frame at a time, and a ``frame_on_wire`` that logs ``(now, src,
    dst, data)``."""

    def __init__(self, engine, address):
        self.engine = engine
        self.address = address
        self.link = None
        self.seen = []
        self._queue = deque()
        self._busy = False

    def send(self, frame):
        self._queue.append(frame)
        if not self._busy:
            self._busy = True
            self._drain()

    def _drain(self):
        if self._queue:
            self.link.transmit(self, self._queue.popleft(), self._drain)
        else:
            self._busy = False

    def frame_on_wire(self, frame):
        self.seen.append((self.engine.now, frame.src_addr, frame.dst_addr,
                          frame.data))


def _traced(engine):
    """Run ``engine`` dry; the ``(time, fn.__name__)`` of every entry."""
    trace = []
    heap = engine._heap
    while heap:
        when, _seq, fn, _arg = heap[0]
        trace.append((when, fn.__name__))
        engine.step()
    return trace


def _schedule(engine, nics, sends, dst_of):
    """``sends`` = [(at_us, src, dst, size)]: each a ``call_at`` entry
    pushed up front (so FIFO among equal instants) that hands a fresh
    frame to NIC ``src``."""
    for index, (at_us, src, dst, size) in enumerate(sends):
        frame = Frame(b"%d" % index, nics[src].address, dst_of(src, dst),
                      wire_bytes=size)
        engine.call_at(at_us, nics[src].send, frame)


def _link_run(link_cls, links, sends, impairment=None,
              bandwidth_bps=_EXACT_BPS):
    """``links`` = [propagation_us] point-to-point wires of two stub NICs
    each (NIC ``2i`` and ``2i + 1``); a send goes to its NIC's peer."""
    engine = Engine()
    nics = [_StubNic(engine, "n%d" % index) for index in range(2 * len(links))]
    media = []
    for index, propagation_us in enumerate(links):
        link = link_cls(engine, bandwidth_bps, propagation_us)
        link.attach(nics[2 * index])
        link.attach(nics[2 * index + 1])
        if impairment is not None:
            link.set_impairments(impairment, seed=index)
        media.append(link)
    _schedule(engine, nics, [(at, src % len(nics), None, size)
                             for at, src, size in sends],
              lambda src, _dst: nics[src ^ 1].address)
    trace = _traced(engine)
    return {"trace": trace, "seen": [nic.seen for nic in nics],
            "counters": [m.fault_counters() for m in media],
            "rng": [m._impairments and m._impairments.rng.getstate()
                    for m in media]}


def _switch_run(switch_cls, sends, ports, forward_latency_us=10.0,
                propagation_us=1.0, bandwidth_bps=_EXACT_BPS):
    """``ports`` stub NICs on one switch; ``sends`` = [(at_us, src, dst,
    size)] where ``dst`` is a NIC index, or None for an address no port
    has (flooded).  Also logs the switch's ``(now, data)`` accepts."""
    engine = Engine()
    switch = switch_cls(engine, bandwidth_bps, forward_latency_us)
    nics = [_StubNic(engine, "p%d" % index) for index in range(ports)]
    for nic in nics:
        switch.new_port(propagation_us).attach(nic)
    accepted = []
    inner = switch.accept

    def accept(frame):
        accepted.append((engine.now, frame.data))
        inner(frame)
    switch.accept = accept
    _schedule(engine, nics, sends, lambda _src, dst: (
        "nowhere" if dst is None else nics[dst].address))
    trace = _traced(engine)
    return {"trace": trace, "seen": [nic.seen for nic in nics],
            "accepted": accepted,
            "counters": ([p.fault_counters() for p in switch.ports],
                         [p.frames_forwarded_in for p in switch.ports],
                         switch.frames_forwarded, switch.frames_flooded)}


def _minus_relays(trace):
    return [entry for entry in trace if entry[1] not in _RELAYS]


_INSTANTS = st.integers(0, 40).map(lambda half_us: half_us * 0.5)
_SIZES = st.integers(1, 1600)


class TestMergedHopOracle:
    """The merged media against the relay media above (the media before
    hops were merged), on random frame sizes and send instants, ties
    included.

    The invariant is that every frame lands at the bit-identical instant,
    in the same order at each sink (a NIC, or the switch's accept), with
    every medium counter equal at quiescence.  A merged landing claims
    its sequence number when its frame starts, not at wire end, so two
    landings at *different* sinks at one instant may run in the other
    order (``test_cross_sink_tie_may_swap`` builds one): nothing at
    either sink can tell, and the switch trace is compared instant by
    instant as a multiset.  On point-to-point wires every non-send entry
    is a ``_deliver``, so there the ``(time, fn)`` trace is equal as a
    sequence."""

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 0.1]),
                    min_size=1, max_size=3),
           st.lists(st.tuples(_INSTANTS, st.integers(0, 5), _SIZES),
                    min_size=1, max_size=16),
           st.sampled_from([_EXACT_BPS, 45e6]))
    @settings(max_examples=150, deadline=None)
    def test_point_to_point(self, links, sends, bandwidth_bps):
        """Exact and inexact (the T3's 45 Mb/s) wire times: a landing
        summed as ``(now + wire) + propagation`` is the relays' float."""
        merged = _link_run(PointToPointLink, links, sends,
                           bandwidth_bps=bandwidth_bps)
        relayed = _link_run(_RelayLink, links, sends,
                            bandwidth_bps=bandwidth_bps)
        assert merged["trace"] == _minus_relays(relayed["trace"])
        assert merged["seen"] == relayed["seen"]
        assert merged["counters"] == relayed["counters"]

    @given(st.lists(st.tuples(_INSTANTS, st.integers(0, 5), _SIZES),
                    min_size=1, max_size=16),
           st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.booleans(),
           st.sampled_from([0.0, 2.5]))
    @settings(max_examples=100, deadline=None)
    def test_impaired_lane_draws_as_before(self, sends, loss, corrupt,
                                           duplicate, jitter_us):
        """An impaired lane keeps its wire-end relay: the same verdicts,
        the same RNG stream, the same landings."""
        config = ImpairmentConfig(
            loss_good=loss, loss_bad=loss, corrupt_rate=corrupt,
            duplicate_rate=0.3 if duplicate else 0.0, reorder_rate=0.2,
            jitter_us=jitter_us, flaps=((300.0, 900.0),))
        merged = _link_run(PointToPointLink, [1.0, 0.5], sends, config)
        relayed = _link_run(_RelayLink, [1.0, 0.5], sends, config)
        assert merged == relayed

    @given(st.integers(2, 5),
           st.lists(st.tuples(_INSTANTS, st.integers(0, 4),
                              st.one_of(st.none(), st.integers(0, 4)),
                              _SIZES),
                    min_size=1, max_size=16),
           st.sampled_from([0.0, 10.0]),
           st.sampled_from([(_EXACT_BPS, 0.0), (_EXACT_BPS, 1.0),
                            (155e6, 0.1)]))
    @settings(max_examples=200, deadline=None)
    def test_switch(self, ports, sends, forward_latency_us, wire):
        """Known and flooded destinations, several senders to one port
        (a contended egress lane), a frame back to its own sender.  On
        the inexact wire (the ATM's 155 Mb/s, an inexact propagation)
        one NIC sends everything: two uplinks' wire ends one ulp apart
        can round to one instant once a propagation is added, and would
        then reach the switch in transmit order, not wire-end order."""
        bandwidth_bps, propagation_us = wire
        senders = ports if bandwidth_bps == _EXACT_BPS else 1
        sends = [(at, src % senders, None if dst is None else dst % ports,
                  size) for at, src, dst, size in sends]
        merged = _switch_run(Switch, sends, ports, forward_latency_us,
                             propagation_us, bandwidth_bps)
        relayed = _switch_run(_RelaySwitch, sends, ports,
                              forward_latency_us, propagation_us,
                              bandwidth_bps)
        assert merged["seen"] == relayed["seen"]
        assert merged["accepted"] == relayed["accepted"]
        assert merged["counters"] == relayed["counters"]
        assert sorted(merged["trace"]) == sorted(
            _minus_relays(relayed["trace"]))

    @given(st.integers(1, 70_000),
           st.one_of(st.sampled_from([10e6, 45e6, 155e6, _EXACT_BPS]),
                     st.floats(1e3, 1e11)),
           st.one_of(st.just(0.0), st.floats(0.0, 1e9)))
    @example(1, 10e6, 0.0)
    @example(1514 + 12, 10e6, 575.176)
    @settings(max_examples=300, deadline=None)
    def test_clean_bus_wire_end(self, wire_bytes, bandwidth_bps, start_us):
        """An idle clean bus pushes its wire-end entry in place at
        ``transmit``: the same instant, bit for bit, and the same
        sequence number as ``_occupy``'s ``call_after(_wire_time_us)``.
        Whole runs, contended flights included, are ``TestLaneOracle``'s
        (``_ResourceBus`` occupies through ``_occupy`` too)."""
        def wire_end(bus_cls):
            engine = Engine()
            bus = bus_cls(engine, bandwidth_bps, 3.0)
            sender, peer = _StubNic(engine, "e0"), _StubNic(engine, "e1")
            bus.attach(sender)
            bus.attach(peer)
            frame = Frame(b"x", "e0", "e1", wire_bytes=wire_bytes)
            engine.call_at(start_us, lambda _arg: bus.transmit(
                sender, frame, sender._drain))
            engine.step()
            when, sequence, fn, flight = engine._heap[0]
            assert len(engine._heap) == 1 and flight[1] is frame
            return when, sequence, fn.__name__
        merged = wire_end(EthernetSegment)
        assert merged == wire_end(_RelayBus)
        assert merged[2] == "_bus_sent"

    def test_cross_sink_tie_may_swap(self):
        """Frame 0 goes p1 -> p2 and is accepted at ``L``; frame 1 starts
        on p0's uplink during frame 0's forwarding latency and lands at
        the switch at the instant frame 0 lands at p2.  The relays pushed
        both landings at wire end, the uplink's first; merged, frame 0's
        was pushed at ``L`` and runs first.  Every sink sees the same
        frames at the same instants."""
        wire = transmission_time_us
        egress_end = 2 * (1.0 + wire(64, _EXACT_BPS)) + 10.0 - 1.0
        start = egress_end - wire(65, _EXACT_BPS)
        sends = [(0.0, 1, 2, 64), (start, 0, 1, 65)]
        merged = _switch_run(Switch, sends, 3)
        relayed = _switch_run(_RelaySwitch, sends, 3)
        tie = egress_end + 1.0
        assert [name for when, name in relayed["trace"] if when == tie] == [
            "_deliver", "_forward_landed"]
        assert [name for when, name in merged["trace"] if when == tie] == [
            "_forward_landed", "_deliver"]
        assert merged["seen"] == relayed["seen"]
        assert merged["accepted"] == relayed["accepted"]


class TestImpairmentDecisionPoint:
    """A clean lane decides at transmit that a frame is clean; an armed
    one decides at wire end what happens to it."""

    _HARD_DOWN = ImpairmentConfig(flaps=((0.0, 1e9),))

    def _run(self, link_cls, action):
        """Two 1,000-byte frames back to back on one wire; ``action``
        touches the wire's impairments 100 us into the first."""
        engine = Engine()
        nic_a, nic_b = _StubNic(engine, "a"), _StubNic(engine, "b")
        link = link_cls(engine, _EXACT_BPS, 1.0)
        link.attach(nic_a)
        link.attach(nic_b)
        if action == "disarm":
            link.set_impairments(self._HARD_DOWN)
        for index in range(2):
            nic_a.send(Frame(b"%d" % index, "a", "b", wire_bytes=1_000))
        engine.call_at(100.0, lambda _arg: link.set_impairments(
            self._HARD_DOWN if action == "arm" else None))
        engine.run()
        return [data for *_, data in nic_b.seen], link.fault_counters()

    def test_armed_mid_flight_applies_from_the_next_frame(self):
        seen, counters = self._run(PointToPointLink, "arm")
        assert seen == [b"0"]
        assert (counters["frames_carried"], counters["frames_delivered"],
                counters["frames_flap_dropped"]) == (2, 1, 1)
        # The relay lane decided at wire end, after arming: both dropped.
        assert self._run(_RelayLink, "arm")[0] == []

    def test_disarmed_mid_flight_lands_clean(self):
        """The frame on the wire at disarming still goes through the
        wire-end relay, which finds no model and delivers it, as the
        relay lane did."""
        assert (self._run(PointToPointLink, "disarm")
                == self._run(_RelayLink, "disarm"))
        assert self._run(PointToPointLink, "disarm")[0] == [b"0", b"1"]


# ---------------------------------------------------------------------------
# (h) the bus and the disk are FIFO lanes: against the Resource they replaced
# ---------------------------------------------------------------------------

class _ResourceBus(EthernetSegment):
    """The bus before it was a lane of its own: flights queue on a
    ``Resource``, released at wire end, and a queued flight starts in
    its grant's entry.  Its own ``_waiting`` stays empty, so the lane's
    wire-end code only fans out."""

    def __init__(self, *args):
        super().__init__(*args)
        self._medium = Resource(self.engine, capacity=1)

    def transmit(self, sender, frame, done):
        flight = (sender, frame, done)
        bus = self._medium
        if bus.try_acquire():
            self._occupy(flight)
        else:
            bus.request().callbacks.append(
                lambda _grant: self._occupy(flight))

    def _bus_sent(self, flight):
        self._medium.release()
        super()._bus_sent(flight)


class _ResourceDisk(Disk):
    """The disk before it was a lane of its own: every read, contended
    or not, waits for a ``Resource`` grant event."""

    def __init__(self, host):
        super().__init__(host)
        self._media = Resource(host.engine, capacity=1)

    def read(self, nbytes):
        self.reads += 1
        self.bytes_read += nbytes
        grant = self._media.request()
        yield grant
        yield self.host.engine.timeout(self.media_time_us(nbytes))
        grant.release()
        return bytes(nbytes)


class _BusNic(_StubNic):
    """A stub NIC whose landings go to one log shared by the whole bus,
    and which logs the instant of each ``done()`` it is given."""

    def __init__(self, engine, address, landings):
        super().__init__(engine, address)
        self.landings = landings
        self.done_at = []

    def _drain(self):
        if self._queue:
            self.link.transmit(self, self._queue.popleft(), self._sent)
        else:
            self._busy = False

    def _sent(self):
        self.done_at.append(self.engine.now)
        self._drain()

    def frame_on_wire(self, frame):
        self.landings.append((self.engine.now, self.address, frame.data))


def _bus_run(bus_cls, senders, sends, impairment=None,
             bandwidth_bps=_EXACT_BPS):
    """``senders`` stub NICs on one bus; ``sends`` = [(at_us, src,
    size)], each frame addressed to the next NIC (the bus shows it to
    all)."""
    engine = Engine()
    landings = []
    nics = [_BusNic(engine, "e%d" % index, landings)
            for index in range(senders)]
    bus = bus_cls(engine, bandwidth_bps, 1.0)
    for nic in nics:
        bus.attach(nic)
    if impairment is not None:
        bus.set_impairments(impairment, seed=5)
    _schedule(engine, nics, [(at, src % senders, None, size)
                             for at, src, size in sends],
              lambda src, _dst: nics[(src + 1) % senders].address)
    engine.run()
    return {"landings": landings, "done": [nic.done_at for nic in nics],
            "events": engine.events_processed,
            "counters": bus.fault_counters(),
            "rng": bus._impairments and bus._impairments.rng.getstate()}


def _disk_run(disk_cls, readers):
    """``readers`` = [(arrival_us, nbytes)], one process each, on one
    disk; ``[(index, completion instant)]`` in completion order."""
    engine = Engine()
    disk = disk_cls(Host(engine, "h"))
    finished = []

    def reader(index, arrival, nbytes):
        yield engine.timeout(arrival)
        data = yield from disk.read(nbytes)
        assert len(data) == nbytes
        finished.append((index, engine.now))

    for index, spec in enumerate(readers):
        engine.process(reader(index, *spec))
    engine.run()
    return finished, engine.events_processed


#: Several senders at once: a same-instant start puts two flights behind
#: the one on the wire, where a LIFO lane would serve them backwards.
_BUS_SENDS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 7.5, 60.0]),
                                st.integers(0, 3), _SIZES),
                      min_size=1, max_size=14)
_THREE_AT_ONCE = [(0.0, 0, 100), (0.0, 1, 200), (0.0, 2, 300)]


class TestLaneOracle:
    """The bus and the disk against ``Resource``-backed twins.  The
    bus's hand-off entry is pushed where ``release()`` pushed the grant,
    so every entry keeps its instant and sequence number: the landing
    order, the ``done()`` instants and the entry count are all equal.
    The disk drops one zero-delay grant entry per uncontended read, and
    nothing else moves."""

    @given(st.integers(2, 4), _BUS_SENDS,
           st.sampled_from([_EXACT_BPS, 10e6]))
    @example(3, _THREE_AT_ONCE, _EXACT_BPS)
    @settings(max_examples=150, deadline=None)
    def test_clean_bus(self, senders, sends, bandwidth_bps):
        lane = _bus_run(EthernetSegment, senders, sends,
                        bandwidth_bps=bandwidth_bps)
        reference = _bus_run(_ResourceBus, senders, sends,
                             bandwidth_bps=bandwidth_bps)
        assert lane == reference

    @given(st.integers(2, 4), _BUS_SENDS,
           st.floats(0.0, 0.5), st.booleans(), st.sampled_from([0.0, 2.5]))
    @example(3, _THREE_AT_ONCE, 0.0, False, 0.0)
    @settings(max_examples=100, deadline=None)
    def test_impaired_bus(self, senders, sends, loss, duplicate, jitter_us):
        config = ImpairmentConfig(
            loss_good=loss, loss_bad=loss, corrupt_rate=0.2,
            duplicate_rate=0.3 if duplicate else 0.0, reorder_rate=0.2,
            jitter_us=jitter_us, bandwidth_scale=0.5,
            flaps=((2_000.0, 2_500.0),))
        lane = _bus_run(EthernetSegment, senders, sends, config)
        reference = _bus_run(_ResourceBus, senders, sends, config)
        assert lane == reference

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.0, 10.0, 130.0,
                                               500.0]),
                              st.integers(1, 40_000)),
                    min_size=1, max_size=10))
    @example([(0.0, 1_000), (0.0, 2_000), (0.0, 3_000)])
    @settings(max_examples=150, deadline=None)
    def test_disk(self, readers):
        finished, events = _disk_run(Disk, readers)
        reference, reference_events = _disk_run(_ResourceDisk, readers)
        assert finished == reference
        assert len(finished) == len(readers)
        assert events <= reference_events

    def test_an_uncontended_read_has_no_grant_entry(self):
        """Two reads that never overlap: each saves the ``Resource``'s
        grant entry, and nothing else changes."""
        readers = [(0.0, 1_000), (1_000.0, 1_000)]
        assert _disk_run(Disk, readers)[1] == (
            _disk_run(_ResourceDisk, readers)[1] - 2)
