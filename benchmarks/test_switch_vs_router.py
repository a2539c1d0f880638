"""One hop, two forwarders: a switch against the plain router.

A ``SwitchHost`` and a ``net.router.Router`` get the same random
longest-prefix route table -- every route ``i`` maps a prefix to one
egress port -- and the same IPv4 UDP / TCP frames, each through the
device input of the same ingress port, inside a kernel path.  The router
is the independent model: its IP layer parses, decrements the TTL,
re-checksums and routes on its own code.  Both must stage one frame per
input on the same egress port, and the router's bytes must equal the
switch's once the test decrements their TTL and re-checksums their IP
header (a switch forwards a frame unchanged).

Both sides sit on ``net/fwdtable.py``, so the check covers what is *not*
the prefix match: parsing, the pick of the egress port, and the bytes
that leave.  This is a hypothesis property rather than a timing; it
lives here so that the reachability audit, which runs ``pytest
benchmarks``, drives a switch hop beside the router's.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.fabric.topology import FabricBed, _add_switch
from repro.hw.alpha import ALPHA_21064
from repro.hw.nic import FabricNic
from repro.net.checksum import internet_checksum
from repro.net.fwdtable import prefix_mask
from repro.net.headers import IPPROTO_TCP, IPPROTO_UDP, ip_aton
from repro.net.ip import IP_BROADCAST
from repro.net.router import Router, RouterInterface
from repro.obs.taps import NicTaps
from repro.sim import Engine
from repro.spin.kernel import SpinKernel

N_PORTS = 4
#: the router's own interface addresses (198.51.100.0/24, TEST-NET-2)
ROUTER_IPS = [ip_aton("198.51.100.%d" % (i + 1)) for i in range(N_PORTS)]
#: route i's next hop (192.0.2.0/24, TEST-NET-1): it names the route the
#: router chose
GATEWAY_BASE = ip_aton("192.0.2.0")

_U32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def _routes(draw):
    """``[(network, prefix_len, port)]``: a /0 so that every frame is
    routed, then up to a dozen prefixes of any length, no two alike."""
    table = {(0, 0): draw(st.integers(0, N_PORTS - 1))}
    for network, prefix_len, port in draw(st.lists(st.tuples(
            _U32, st.integers(1, 32), st.integers(0, N_PORTS - 1)),
            max_size=12)):
        table[network & prefix_mask(prefix_len), prefix_len] = port
    return [(network, prefix_len, port)
            for (network, prefix_len), port in table.items()]


@st.composite
def _frame(draw, routes):
    """A well-formed IPv4 UDP or TCP frame, often to a destination under
    one of ``routes``; its L4 checksum is arbitrary (neither side reads
    it)."""
    network, prefix_len, _port = draw(st.sampled_from(routes))
    dst = draw(st.one_of(_U32, _U32.map(
        lambda low: network | (low & ~prefix_mask(prefix_len) & 0xFFFFFFFF))
    ).filter(lambda d: d not in ROUTER_IPS and d != IP_BROADCAST))
    proto = draw(st.sampled_from([IPPROTO_UDP, IPPROTO_TCP]))
    l4 = struct.pack("!HH", draw(st.integers(0, 0xFFFF)),
                     draw(st.integers(0, 0xFFFF)))
    l4 += draw(st.binary(min_size=4 if proto == IPPROTO_UDP else 16,
                         max_size=80))
    header = bytearray(struct.pack(
        "!BBHHHBBHII", 0x45, draw(st.integers(0, 0xFF)), 20 + len(l4),
        draw(st.integers(0, 0xFFFF)), draw(st.sampled_from([0, 0x4000])),
        draw(st.integers(2, 0xFF)), proto, 0, draw(_U32), dst))
    header[10:12] = internet_checksum(header).to_bytes(2, "big")
    return bytes(header + l4)


@st.composite
def _hop(draw):
    routes = draw(_routes())
    frames = draw(st.lists(_frame(routes), min_size=1, max_size=8))
    return routes, frames, draw(st.integers(0, N_PORTS - 1))


class _Staged:
    """Every frame a device stages, as (port index, bytes)."""

    def __init__(self, nics):
        self.frames = []
        self._index = {nic: index for index, nic in enumerate(nics)}
        for nic in nics:
            NicTaps(nic).join(self)

    def on_tx(self, nic, data):
        self.frames.append((self._index[nic], bytes(data)))


def _switch(engine, routes):
    bed = FabricBed(engine, "spin", 0, "interrupt", ALPHA_21064)
    switch = _add_switch(bed, "sw", [("sw-p%d" % i, "peer-%d" % i)
                                     for i in range(N_PORTS)],
                         [(network, prefix_len, (port,))
                          for network, prefix_len, port in routes])
    return switch, [port.nic for port in switch.ports]


def _routed(frame):
    """``frame`` as a router forwards it: TTL one less, IP re-checksummed."""
    out = bytearray(frame)
    out[8] -= 1
    out[10:12] = b"\0\0"
    out[10:12] = internet_checksum(out[:20]).to_bytes(2, "big")
    return bytes(out)


def _router(engine, routes):
    kernel = SpinKernel(engine, "rt", costs=ALPHA_21064)
    nics = [FabricNic(engine, "r%d" % i, "rt-p%d" % i)
            for i in range(N_PORTS)]
    neighbors = [{} for _ in nics]
    for index, (_network, _prefix_len, port) in enumerate(routes):
        neighbors[port][GATEWAY_BASE + index] = "peer-%d" % port
    for nic in nics:
        kernel.add_nic(nic)
    router = Router(kernel, [
        RouterInterface(nic, ROUTER_IPS[i], link="raw",
                        neighbors=neighbors[i])
        for i, nic in enumerate(nics)])
    for index, (network, prefix_len, port) in enumerate(routes):
        router.add_route(network, prefix_len, port,
                         gateway=GATEWAY_BASE + index)
    return router, nics


def _feed(host, nic, frames):
    device_input, _label = host._device_input[nic.name]
    for frame in frames:
        yield from host.kernel_path(device_input, (nic, frame))


@given(hop=_hop())
@settings(max_examples=60, deadline=None)
def test_switch_and_router_forward_alike(hop):
    routes, frames, ingress = hop
    engine = Engine()
    switch, switch_nics = _switch(engine, routes)
    router, router_nics = _router(engine, routes)
    switch_out, router_out = _Staged(switch_nics), _Staged(router_nics)
    engine.process(_feed(switch.host, switch_nics[ingress], frames))
    engine.process(_feed(router.host, router_nics[ingress], frames))
    engine.run()

    assert router.forwarded == len(frames)
    assert len(router_out.frames) == len(frames)
    assert [(port, _routed(data)) for port, data in switch_out.frames] == \
        router_out.frames
    assert switch.pipeline_forwarded == switch.table_hits == len(frames)
    assert switch.host.dispatcher.total_failures == 0
