"""The fat-tree builder: a k-ary fat-tree of SwitchHosts on one engine.

:func:`fat_tree` emits a :class:`FabricBed` -- a :class:`~repro.bench.
testbed.Testbed` whose medium is a set of point-to-point wires joining
edge hosts (full protocol stacks) to :class:`SwitchHost`\\ s.
Addressing, NIC addresses, wire order, and route tables are all pure
functions of the topology parameters, so campaign corpora can name a
wire without building a bed.

Fat-tree layout (k even): ``k`` pods, each with ``k/2`` edge and ``k/2``
aggregation switches, ``(k/2)^2`` cores; hosts hang off edge switches
(``hosts_per_edge`` per edge, default 1).  Host (pod ``p``, edge ``e``,
slot ``s``) owns IP ``10.p.e.(s+2)``; edges hold /32s plus an ECMP
default up, aggs hold per-edge /24s plus an ECMP default up, cores hold
per-pod /16s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bench.testbed import Testbed
from ..hw.alpha import ALPHA_21064, CostTable
from ..hw.link import PointToPointLink
from ..hw.nic import FabricNic
from ..net.headers import ip_aton
from ..sim import Engine
from ..spin.kernel import SpinKernel
from .switch import SwitchHost

__all__ = ["FabricBed", "fat_tree", "schedule_core_avoidance",
           "fat_tree_core_wires", "FABRIC_BANDWIDTH_BPS",
           "FABRIC_PROPAGATION_US"]

FABRIC_BANDWIDTH_BPS = 1e9
FABRIC_PROPAGATION_US = 1.0
HOST_LINK_PROPAGATION_US = 0.5


class FabricBed(Testbed):
    """A testbed whose medium is a multi-hop switch fabric."""

    def __init__(self, engine: Engine, os_name: str, ecmp_seed: int,
                 deliver_mode: str, costs: CostTable):
        super().__init__(engine, os_name, "fabric", deliver_mode, costs)
        self.ecmp_seed = ecmp_seed           # of every switch
        self.switches: List[SwitchHost] = []
        self.links: List[object] = []
        self.wire_names: List[str] = []
        self.wires_by_name: Dict[str, int] = {}
        #: (pod, edge, slot) per edge host, aligned with ``stacks``
        self.host_locator: List[Tuple[int, int, int]] = []
        self.edge_switches: Dict[Tuple[int, int], SwitchHost] = {}
        self.agg_switches: Dict[Tuple[int, int], SwitchHost] = {}
        self.core_switches: Dict[int, SwitchHost] = {}

    def media(self) -> List[object]:
        return list(self.links)

    def add_wire(self, link, name: str) -> None:
        self.wires_by_name[name] = len(self.links)
        self.links.append(link)
        self.wire_names.append(name)

    def switch_conservation(self) -> List[str]:
        """Per-switch frame-conservation violations (empty when sound)."""
        problems = []
        for switch in self.switches:
            accepted = sum(port.received for port in switch.ports)
            fated = switch.pipeline_forwarded + switch.pipeline_dropped
            if accepted != switch.pipeline_packets or fated != accepted:
                problems.append(
                    "%s: accepted=%d pipeline=%d forwarded=%d dropped=%d"
                    % (switch.name, accepted, switch.pipeline_packets,
                       switch.pipeline_forwarded, switch.pipeline_dropped))
        return problems


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _add_edge_host(bed: FabricBed, name: str, nic_addr: str, my_ip: int,
                   peer_ips: List[int], uplink_addr: str,
                   locator: Tuple[int, int, int]) -> None:
    """An edge host at ``locator``: every other host of the fabric is a
    static neighbor reached through the host's own uplink."""
    neighbors = {ip: uplink_addr for ip in peer_ips if ip != my_ip}
    bed.add_host(name, FabricNic(bed.engine, "fab0", nic_addr), my_ip, "raw",
                 neighbors)
    bed.host_locator.append(locator)


def _add_switch(bed: FabricBed, name: str, ports: List[Tuple[str, str]],
                routes: List[Tuple[int, int, Tuple[int, ...]]]) -> SwitchHost:
    """A switch: port ``i`` is NIC ``p<i>`` with the address and peer
    address ``ports[i]``, and its route table holds ``routes`` --
    ``(network, prefix_len, egress ports)``, more than one egress port
    meaning ECMP.  Call after every edge host is added:
    the switch kernel and its port NICs join ``bed.hosts`` / ``bed.nics``
    behind them (conservation laws sweep them)."""
    engine = bed.engine
    switch = SwitchHost(SpinKernel(engine, name, costs=bed.costs), name=name,
                        ecmp_seed=bed.ecmp_seed)
    for index, (address, peer_addr) in enumerate(ports):
        switch.add_port(FabricNic(engine, "p%d" % index, address),
                        peer_addr=peer_addr)
    for network, prefix_len, egress in routes:
        switch.set_route(network, prefix_len, egress)
    bed.switches.append(switch)
    bed.hosts.append(switch.host)
    bed.nics.extend(port.nic for port in switch.ports)
    return switch


def _wire(bed: FabricBed, nic_a, nic_b, name: str,
          propagation_us: float = FABRIC_PROPAGATION_US) -> None:
    link = PointToPointLink(bed.engine, bandwidth_bps=FABRIC_BANDWIDTH_BPS,
                            propagation_us=propagation_us)
    link.attach(nic_a)
    link.attach(nic_b)
    bed.add_wire(link, name)


# ---------------------------------------------------------------------------
# fat-tree
# ---------------------------------------------------------------------------

def _ft_host_ip(p: int, e: int, s: int) -> int:
    return ip_aton("10.%d.%d.%d" % (p, e, s + 2))


def _ft_host_addr(p: int, e: int, s: int) -> str:
    return "fh-p%de%ds%d" % (p, e, s)


def _ft_edge_addr(p: int, e: int, port: int) -> str:
    return "fe-p%de%d.%d" % (p, e, port)


def _ft_agg_addr(p: int, a: int, port: int) -> str:
    return "fa-p%da%d.%d" % (p, a, port)


def _ft_core_addr(c: int, port: int) -> str:
    return "fc-c%d.%d" % (c, port)


def _validate_fat_tree(k: int, hosts_per_edge: int) -> int:
    if k < 2 or k % 2:
        raise ValueError("fat-tree k must be an even integer >= 2, got %r" % k)
    half = k // 2
    if not 1 <= hosts_per_edge <= half:
        raise ValueError("hosts_per_edge must be in 1..k/2")
    return half


def fat_tree(k: int, os_name: str = "spin", hosts_per_edge: int = 1,
             ecmp_seed: int = 1996, deliver_mode: str = "interrupt",
             costs: CostTable = ALPHA_21064) -> FabricBed:
    """A full k-ary fat-tree on one engine."""
    half = _validate_fat_tree(k, hosts_per_edge)
    bed = FabricBed(Engine(), os_name, ecmp_seed, deliver_mode, costs)
    bed.fat_tree_k = k
    bed.hosts_per_edge = hosts_per_edge

    all_ips = [_ft_host_ip(p, e, s) for p in range(k) for e in range(half)
               for s in range(hosts_per_edge)]

    # Edge hosts, interleaved across pods so adjacent indices sit in
    # different pods (chaos workloads drive stacks[0] <-> stacks[1] and
    # must cross the core).
    for e in range(half):
        for s in range(hosts_per_edge):
            for p in range(k):
                _add_edge_host(bed, "fab-h-p%de%ds%d" % (p, e, s),
                               _ft_host_addr(p, e, s), _ft_host_ip(p, e, s),
                               all_ips, _ft_edge_addr(p, e, s), (p, e, s))

    # Edge switches: ports 0..hpe-1 face hosts, hpe..hpe+half-1 face aggs;
    # /32s down, ECMP default up.
    uplinks = tuple(range(hosts_per_edge, hosts_per_edge + half))
    for p in range(k):
        for e in range(half):
            bed.edge_switches[(p, e)] = _add_switch(
                bed, "fab-e-p%de%d" % (p, e),
                [(_ft_edge_addr(p, e, s), _ft_host_addr(p, e, s))
                 for s in range(hosts_per_edge)] +
                [(_ft_edge_addr(p, e, hosts_per_edge + a),
                  _ft_agg_addr(p, a, e)) for a in range(half)],
                [(_ft_host_ip(p, e, s), 32, (s,))
                 for s in range(hosts_per_edge)] + [(0, 0, uplinks)])

    # Aggregation switches: ports 0..half-1 face edges, half.. face cores;
    # per-edge /24s down, ECMP default up.
    uplinks = tuple(range(half, 2 * half))
    for p in range(k):
        for a in range(half):
            bed.agg_switches[(p, a)] = _add_switch(
                bed, "fab-a-p%da%d" % (p, a),
                [(_ft_agg_addr(p, a, e),
                  _ft_edge_addr(p, e, hosts_per_edge + a))
                 for e in range(half)] +
                [(_ft_agg_addr(p, a, half + j), _ft_core_addr(a * half + j, p))
                 for j in range(half)],
                [(ip_aton("10.%d.%d.0" % (p, e)), 24, (e,))
                 for e in range(half)] + [(0, 0, uplinks)])

    # Core switches: port p faces pod p's agg c//half; per-pod /16s.
    for c in range(half * half):
        bed.core_switches[c] = _add_switch(
            bed, "fab-c%d" % c,
            [(_ft_core_addr(c, p),
              _ft_agg_addr(p, c // half, half + (c % half)))
             for p in range(k)],
            [(ip_aton("10.%d.0.0" % p), 16, (p,)) for p in range(k)])

    # Wires, in canonical order: host links, edge-agg, agg-core.
    for p in range(k):
        for e in range(half):
            switch = bed.edge_switches[(p, e)]
            for s in range(hosts_per_edge):
                host_index = bed.host_locator.index((p, e, s))
                _wire(bed, bed.nics[host_index], switch.ports[s].nic,
                      "host:p%de%ds%d" % (p, e, s),
                      propagation_us=HOST_LINK_PROPAGATION_US)
    for p in range(k):
        for e in range(half):
            for a in range(half):
                _wire(bed,
                      bed.edge_switches[(p, e)].ports[hosts_per_edge + a].nic,
                      bed.agg_switches[(p, a)].ports[e].nic,
                      "edge-agg:p%de%da%d" % (p, e, a))
    for p in range(k):
        for a in range(half):
            for j in range(half):
                c = a * half + j
                _wire(bed, bed.agg_switches[(p, a)].ports[half + j].nic,
                      bed.core_switches[c].ports[p].nic,
                      "agg-core:p%da%dc%d" % (p, a, c))
    return bed


def fat_tree_core_wires(k: int, hosts_per_edge: int = 1,
                        core: Optional[int] = None) -> Tuple[int, ...]:
    """Indexes (``bed.media()`` order) of the agg-to-core wires of a full
    :func:`fat_tree` bed -- all of them, or just the ones touching
    ``core``.  Pure arithmetic over the canonical wire order (host links,
    then edge-agg, then agg-core), so campaign corpora can name a core
    link without building a bed.
    """
    half = _validate_fat_tree(k, hosts_per_edge)
    base = k * half * hosts_per_edge + k * half * half
    wires = []
    offset = 0
    for _p in range(k):
        for a in range(half):
            for j in range(half):
                if core is None or a * half + j == core:
                    wires.append(base + offset)
                offset += 1
    return tuple(wires)


def schedule_core_avoidance(bed: FabricBed, at_us: float,
                            core_index: int) -> None:
    """At ``at_us``, reprogram every agg uplinked to ``core_index`` to
    ECMP around it -- the control-plane reaction to a flapping core link.

    The update is a plain route write at a scheduled simulated time, so
    it is bit-identical across runs, and the very next packet through
    the dispatcher sees the new route (the table is read inside the
    handler, not compiled into the raise).
    """
    half = bed.fat_tree_k // 2
    a = core_index // half
    j = core_index % half
    survivors = tuple(half + jj for jj in range(half) if jj != j)
    if not survivors:
        raise ValueError("cannot avoid the only core of agg %d" % a)

    def apply(_event=None) -> None:
        for (p, agg), switch in sorted(bed.agg_switches.items()):
            if agg != a:
                continue
            switch.set_route(0, 0, survivors)
    bed.engine.call_at(at_us, apply)
