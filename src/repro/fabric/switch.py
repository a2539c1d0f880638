"""SwitchHost: a SPIN kernel whose application is one route table.

A switch is infrastructure built directly on :class:`SpinKernel` (like
``repro.net.router.Router``): every received frame is raised as a
``Fabric.PacketRecv(port, data)`` event through the ordinary dispatcher
(the event's one handler is unguarded, so its generated scan is the whole
raise), and the handler looks its destination up in the switch's
longest-prefix route table.  A route's value is a tuple of egress ports:
one port, or an ECMP group hashed over the 5-tuple.  A miss drops the
frame.

``data`` is the frame's bytes as the NIC delivered them.  The pipeline
parses them where they lie, never writes them and never builds an mbuf:
READONLY (paper §3.4) holds because ``bytes`` is immutable.  Both chains
a hop moves -- ingress and egress -- are still booked, in place, so a hop
costs what building them did.

Conservation law, checked by tests and chaos invariants: every frame a
port accepts is counted exactly once as forwarded or dropped
(``pipeline_packets == pipeline_forwarded + pipeline_dropped``), and the
mbuf law holds (one chain per ingress frame, one per egress frame).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from ..hw.cpu import OUTSIDE_PATH, ChargeError
from ..net.fwdtable import ForwardingTable
from ..sim import SimulationError
from ..spin.mbuf import MCLBYTES
from .ecmp import ecmp_select
from .table import PacketFields

__all__ = ["SwitchHost", "FabricPort"]


class FabricPort:
    """One switch port: a NIC plus its statically known peer address."""

    __slots__ = ("index", "nic", "peer_addr", "received", "forwarded")

    def __init__(self, index: int, nic, peer_addr: Optional[str] = None):
        self.index = index
        self.nic = nic
        #: link address frames egress toward (set by the topology builder).
        self.peer_addr = peer_addr
        self.received = 0
        self.forwarded = 0


class SwitchHost:
    """A store-and-forward switch on the protocol graph."""

    def __init__(self, kernel, name: Optional[str] = None, ecmp_seed: int = 0):
        self.host = kernel
        self.name = name or kernel.name
        self.ecmp_seed = ecmp_seed
        self.ports: List[FabricPort] = []
        #: destination prefix -> tuple of egress port indexes
        self.routes = ForwardingTable()
        self.table_hits = 0
        self.table_misses = 0
        self.table_updates = 0
        self.pipeline_packets = 0
        self.pipeline_forwarded = 0
        self.pipeline_dropped = 0
        self.ecmp_decisions = 0
        dispatcher = kernel.dispatcher
        self.event = dispatcher.declare("Fabric.PacketRecv")
        dispatcher.install(self.event, self._pipeline, guard=None,
                           mode="inline", label="%s.pipeline" % self.name)
        #: hook for repro.obs.wire.instrument_testbed
        kernel.fabric_pipeline = self

    # -- construction -----------------------------------------------------

    def add_port(self, nic, peer_addr: Optional[str] = None) -> FabricPort:
        """Attach ``nic`` as the next port and wire its interrupt input."""
        port = FabricPort(len(self.ports), nic, peer_addr)
        self.ports.append(port)
        self.host.add_nic(nic)
        self.host.register_device_input(nic, partial(self._device_input, port))
        return port

    def set_route(self, network: int, prefix_len: int,
                  ports: Tuple[int, ...]) -> None:
        """Route ``network/prefix_len`` out of ``ports`` (more than one:
        ECMP), replacing any route for that prefix.  Control-plane state:
        it charges no simulated CPU and the very next frame sees it."""
        if not ports:
            raise ValueError("a route needs at least one egress port")
        self.routes.remove(network, prefix_len)
        self.routes.add(network, prefix_len, tuple(ports))
        self.table_updates += 1

    # -- data plane -------------------------------------------------------

    def _device_input(self, port: FabricPort, nic, data: bytes) -> None:
        """Interrupt-context entry: charge the ingress chain, raise."""
        host = self.host
        # cpu.charge inlined (exact body, exact order): per-frame path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        amount = host.costs.ethernet_input
        stack[-1] += amount
        cpu.category_times["protocol"] += amount
        # The ingress chain is booked as ``from_bytes(data,
        # leading_space=0)`` would book it; the pipeline reads ``data``.
        links = -(-len(data) // MCLBYTES) or 1
        amount = links * host.costs.mbuf_alloc
        stack[-1] += amount
        cpu.category_times["mbuf"] += amount
        host.mbufs.allocated += links
        host.mbufs.chains += 1
        port.received += 1
        (self.event._scan or host.dispatcher.compile(self.event))((port, data))

    def _pipeline(self, port: FabricPort, data: bytes) -> None:
        """Route the frame: forwarded on a hit, dropped otherwise."""
        self.pipeline_packets += 1
        fields = PacketFields(data)
        if fields.ok:
            dst_ip = fields.dst_ip
            hit = self.routes._cache.get(dst_ip)
            ports = hit[0] if hit is not None else self.routes.lookup(dst_ip)
            if ports is not None:
                self.table_hits += 1
                self._emit(ports, fields, data)
                return
            self.table_misses += 1
        self.pipeline_dropped += 1

    def _emit(self, ports: Tuple[int, ...], fields: PacketFields,
              data: bytes) -> None:
        if len(ports) == 1:
            index = ports[0]
        else:
            index = ports[ecmp_select(self.ecmp_seed, fields.proto,
                                      fields.src_ip, fields.dst_ip,
                                      fields.src_port, fields.dst_port,
                                      len(ports))]
            self.ecmp_decisions += 1
        egress = self.ports[index]
        if egress.peer_addr is None:
            raise SimulationError("%s port %d has no peer address"
                                  % (self.name, index))
        # The egress copy is charged as a fresh mbuf chain so the
        # per-host mbuf conservation law (one chain per frame moved)
        # holds on switches exactly as on end hosts.  Nothing reads that
        # chain -- what goes to the NIC is ``data`` itself -- so it is
        # booked without being built, in place as the ingress chain is.
        host = self.host
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            raise ChargeError(OUTSIDE_PATH)
        links = -(-len(data) // MCLBYTES) or 1
        amount = links * host.costs.mbuf_alloc
        stack[-1] += amount
        cpu.category_times["mbuf"] += amount
        host.mbufs.allocated += links
        host.mbufs.chains += 1
        egress.nic.stage_tx(data, egress.peer_addr)
        egress.forwarded += 1
        self.pipeline_forwarded += 1

    # -- observability ----------------------------------------------------

    def register_metrics(self, registry) -> None:
        registry.source("fabric.pipeline.packets",
                        lambda: self.pipeline_packets)
        registry.source("fabric.pipeline.forwarded",
                        lambda: self.pipeline_forwarded)
        registry.source("fabric.pipeline.dropped",
                        lambda: self.pipeline_dropped)
        registry.source("fabric.pipeline.ecmp", lambda: self.ecmp_decisions)
        for port in self.ports:
            registry.source("fabric.port.received",
                            lambda p=port: p.received)
            registry.source("fabric.port.forwarded",
                            lambda p=port: p.forwarded)
        registry.source("fabric.table.hits", lambda: self.table_hits)
        registry.source("fabric.table.misses", lambda: self.table_misses)
        registry.source("fabric.table.updates", lambda: self.table_updates)
        registry.source("fabric.table.entries", lambda: len(self.routes))
