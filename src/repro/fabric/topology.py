"""Topology builders: fat-trees, leaf-spine, and chains of SwitchHosts.

Every builder emits a :class:`FabricBed` -- a :class:`~repro.bench.
testbed.Testbed` whose medium is a set of point-to-point wires joining
edge hosts (full protocol stacks) to programmed :class:`SwitchHost`\\ s.
Addressing, NIC addresses, wire order, and table programs are all pure
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
from ..core.plexus import PlexusStack
from ..hw.alpha import ALPHA_21064, CostTable
from ..hw.link import PointToPointLink
from ..hw.nic import FabricNic
from ..net.headers import ip_aton
from ..sim import Engine
from ..spin.kernel import SpinKernel
from ..unixos.kernelnet import UnixKernel, UnixStack
from ..unixos.sockets import SocketLayer
from .switch import SwitchHost
from .table import Forward, MatchTable

__all__ = ["FabricBed", "fat_tree", "leaf_spine",
           "linear_chain", "schedule_core_avoidance", "fat_tree_core_wires",
           "FABRIC_BANDWIDTH_BPS", "FABRIC_PROPAGATION_US"]

FABRIC_BANDWIDTH_BPS = 1e9
FABRIC_PROPAGATION_US = 1.0
HOST_LINK_PROPAGATION_US = 0.5


class FabricBed(Testbed):
    """A testbed whose medium is a programmed multi-hop switch fabric."""

    def __init__(self, engine: Engine, os_name: str, device: str):
        super().__init__(engine, os_name, device)
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
# shared pieces
# ---------------------------------------------------------------------------

def _new_switch(engine, name: str, costs: CostTable,
                ecmp_seed: int) -> SwitchHost:
    return SwitchHost(SpinKernel(engine, name, costs=costs), name=name,
                      ecmp_seed=ecmp_seed)


def _add_edge_host(bed: FabricBed, os_name: str, name: str, nic_addr: str,
                   my_ip: int, neighbors: Dict[int, str], deliver_mode: str,
                   costs: CostTable) -> None:
    engine = bed.engine
    nic = FabricNic(engine, "fab0", nic_addr)
    if os_name == "spin":
        host = SpinKernel(engine, name, costs=costs)
    else:
        host = UnixKernel(engine, name, costs=costs)
    host.add_nic(nic)
    bed.hosts.append(host)
    bed.nics.append(nic)
    bed.ips.append(my_ip)
    if os_name == "spin":
        stack = PlexusStack(host, nic, my_ip, deliver_mode=deliver_mode,
                            link="raw", neighbors=neighbors)
        bed.sockets.append(None)
    else:
        stack = UnixStack(host, nic, my_ip, link="raw", neighbors=neighbors)
        bed.sockets.append(SocketLayer(stack))
    bed.stacks.append(stack)


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
             engine: Optional[Engine] = None, ecmp_seed: int = 1996,
             deliver_mode: str = "interrupt",
             costs: CostTable = ALPHA_21064) -> FabricBed:
    """A full k-ary fat-tree on one engine."""
    engine = engine or Engine()
    half = _validate_fat_tree(k, hosts_per_edge)
    bed = FabricBed(engine, os_name, "fabric")
    bed.fat_tree_k = k
    bed.hosts_per_edge = hosts_per_edge

    # Static neighbor map: every other host in the fabric is reached via
    # the sender's own edge-switch uplink.
    all_hosts = [(p, e, s) for p in range(k) for e in range(half)
                 for s in range(hosts_per_edge)]

    # Edge hosts, interleaved across pods so adjacent indices sit in
    # different pods (chaos workloads drive stacks[0] <-> stacks[1] and
    # must cross the core).
    for e in range(half):
        for s in range(hosts_per_edge):
            for p in range(k):
                my_ip = _ft_host_ip(p, e, s)
                neighbors = {
                    _ft_host_ip(op, oe, os_): _ft_edge_addr(p, e, s)
                    for (op, oe, os_) in all_hosts
                    if (op, oe, os_) != (p, e, s)}
                _add_edge_host(bed, os_name, "fab-h-p%de%ds%d" % (p, e, s),
                               _ft_host_addr(p, e, s), my_ip, neighbors,
                               deliver_mode, costs)
                bed.host_locator.append((p, e, s))

    # Edge switches: ports 0..hpe-1 face hosts, hpe..hpe+half-1 face aggs.
    for p in range(k):
        for e in range(half):
            switch = _new_switch(engine, "fab-e-p%de%d" % (p, e), costs,
                                 ecmp_seed)
            for s in range(hosts_per_edge):
                nic = FabricNic(engine, "p%d" % s, _ft_edge_addr(p, e, s))
                switch.add_port(nic, peer_addr=_ft_host_addr(p, e, s))
            for a in range(half):
                port = hosts_per_edge + a
                nic = FabricNic(engine, "p%d" % port, _ft_edge_addr(p, e, port))
                switch.add_port(nic, peer_addr=_ft_agg_addr(p, a, e))
            table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
            for s in range(hosts_per_edge):
                table.set(_ft_host_ip(p, e, s), (Forward(s),), prefix_len=32)
            uplinks = tuple(range(hosts_per_edge, hosts_per_edge + half))
            table.set(0, (Forward(*uplinks),), prefix_len=0)
            bed.edge_switches[(p, e)] = switch
            bed.switches.append(switch)

    # Aggregation switches: ports 0..half-1 face edges, half.. face cores.
    for p in range(k):
        for a in range(half):
            switch = _new_switch(engine, "fab-a-p%da%d" % (p, a), costs,
                                 ecmp_seed)
            for e in range(half):
                nic = FabricNic(engine, "p%d" % e, _ft_agg_addr(p, a, e))
                switch.add_port(
                    nic, peer_addr=_ft_edge_addr(p, e, hosts_per_edge + a))
            for j in range(half):
                c = a * half + j
                port = half + j
                nic = FabricNic(engine, "p%d" % port, _ft_agg_addr(p, a, port))
                switch.add_port(nic, peer_addr=_ft_core_addr(c, p))
            table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
            for e in range(half):
                table.set(ip_aton("10.%d.%d.0" % (p, e)), (Forward(e),),
                          prefix_len=24)
            uplinks = tuple(range(half, 2 * half))
            table.set(0, (Forward(*uplinks),), prefix_len=0)
            bed.agg_switches[(p, a)] = switch
            bed.switches.append(switch)

    # Core switches: port p faces pod p's agg c//half.
    for c in range(half * half):
        switch = _new_switch(engine, "fab-c%d" % c, costs, ecmp_seed)
        a = c // half
        for p in range(k):
            nic = FabricNic(engine, "p%d" % p, _ft_core_addr(c, p))
            switch.add_port(
                nic, peer_addr=_ft_agg_addr(p, a, half + (c % half)))
        table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
        for p in range(k):
            table.set(ip_aton("10.%d.0.0" % p), (Forward(p),),
                      prefix_len=16)
        bed.core_switches[c] = switch
        bed.switches.append(switch)

    # Switch kernels join the host list (conservation laws sweep them);
    # their port NICs join the NIC list.
    for switch in bed.switches:
        bed.hosts.append(switch.host)
        bed.nics.extend(port.nic for port in switch.ports)

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

    The update is a plain table write at a scheduled simulated time, so
    it is bit-identical across runs and executors, and the very next
    packet through the dispatcher sees the new route (the tables are
    read inside the handler, not compiled into the raise).
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
            switch.tables[0].set(0, (Forward(*survivors),), prefix_len=0)
    bed.engine.call_at(at_us, apply)


# ---------------------------------------------------------------------------
# leaf-spine and chains
# ---------------------------------------------------------------------------

def leaf_spine(spines: int, leaves: int, os_name: str = "spin",
               hosts_per_leaf: int = 1, engine: Optional[Engine] = None,
               ecmp_seed: int = 1996, deliver_mode: str = "interrupt",
               costs: CostTable = ALPHA_21064) -> FabricBed:
    """A two-tier leaf-spine fabric: every leaf uplinks to every spine."""
    if spines < 1 or leaves < 2:
        raise ValueError("leaf-spine needs >= 1 spine and >= 2 leaves")
    if hosts_per_leaf < 1:
        raise ValueError("hosts_per_leaf must be >= 1")
    engine = engine or Engine()
    bed = FabricBed(engine, os_name, "fabric")

    def host_ip(l: int, s: int) -> int:
        return ip_aton("10.0.%d.%d" % (l, s + 2))

    def host_addr(l: int, s: int) -> str:
        return "fh-l%ds%d" % (l, s)

    def leaf_addr(l: int, port: int) -> str:
        return "fl-l%d.%d" % (l, port)

    def spine_addr(sp: int, port: int) -> str:
        return "fs-s%d.%d" % (sp, port)

    all_hosts = [(l, s) for l in range(leaves) for s in range(hosts_per_leaf)]
    for s in range(hosts_per_leaf):
        for l in range(leaves):
            neighbors = {host_ip(ol, os_): leaf_addr(l, s)
                         for (ol, os_) in all_hosts if (ol, os_) != (l, s)}
            _add_edge_host(bed, os_name, "fab-h-l%ds%d" % (l, s),
                           host_addr(l, s), host_ip(l, s), neighbors,
                           deliver_mode, costs)
            bed.host_locator.append((0, l, s))

    leaf_switches = []
    for l in range(leaves):
        switch = _new_switch(engine, "fab-l%d" % l, costs, ecmp_seed)
        for s in range(hosts_per_leaf):
            switch.add_port(FabricNic(engine, "p%d" % s, leaf_addr(l, s)),
                            peer_addr=host_addr(l, s))
        for sp in range(spines):
            port = hosts_per_leaf + sp
            switch.add_port(FabricNic(engine, "p%d" % port, leaf_addr(l, port)),
                            peer_addr=spine_addr(sp, l))
        table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
        for s in range(hosts_per_leaf):
            table.set(host_ip(l, s), (Forward(s),), prefix_len=32)
        uplinks = tuple(range(hosts_per_leaf, hosts_per_leaf + spines))
        table.set(0, (Forward(*uplinks),), prefix_len=0)
        leaf_switches.append(switch)
        bed.edge_switches[(0, l)] = switch
        bed.switches.append(switch)

    for sp in range(spines):
        switch = _new_switch(engine, "fab-s%d" % sp, costs, ecmp_seed)
        for l in range(leaves):
            switch.add_port(FabricNic(engine, "p%d" % l, spine_addr(sp, l)),
                            peer_addr=leaf_addr(l, hosts_per_leaf + sp))
        table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
        for l in range(leaves):
            table.set(ip_aton("10.0.%d.0" % l), (Forward(l),), prefix_len=24)
        bed.core_switches[sp] = switch
        bed.switches.append(switch)

    for switch in bed.switches:
        bed.hosts.append(switch.host)
        bed.nics.extend(port.nic for port in switch.ports)

    for l in range(leaves):
        for s in range(hosts_per_leaf):
            host_index = bed.host_locator.index((0, l, s))
            _wire(bed, bed.nics[host_index], leaf_switches[l].ports[s].nic,
                  "host:l%ds%d" % (l, s),
                  propagation_us=HOST_LINK_PROPAGATION_US)
    for l in range(leaves):
        for sp in range(spines):
            _wire(bed, leaf_switches[l].ports[hosts_per_leaf + sp].nic,
                  bed.core_switches[sp].ports[l].nic,
                  "leaf-spine:l%ds%d" % (l, sp))
    return bed


def linear_chain(n_switches: int, os_name: str = "spin",
                 engine: Optional[Engine] = None, ecmp_seed: int = 1996,
                 deliver_mode: str = "interrupt",
                 costs: CostTable = ALPHA_21064) -> FabricBed:
    """Two hosts joined by a chain of ``n_switches`` single-table hops."""
    if n_switches < 1:
        raise ValueError("a chain needs at least one switch")
    engine = engine or Engine()
    bed = FabricBed(engine, os_name, "fabric")
    ip_a, ip_b = ip_aton("10.0.0.2"), ip_aton("10.0.1.2")

    def chain_addr(i: int, port: int) -> str:
        return "fx-c%d.%d" % (i, port)

    _add_edge_host(bed, os_name, "fab-h-a", "fh-a", ip_a,
                   {ip_b: chain_addr(0, 0)}, deliver_mode, costs)
    bed.host_locator.append((0, 0, 0))
    _add_edge_host(bed, os_name, "fab-h-b", "fh-b", ip_b,
                   {ip_a: chain_addr(n_switches - 1, 1)}, deliver_mode, costs)
    bed.host_locator.append((0, 1, 0))

    for i in range(n_switches):
        switch = _new_switch(engine, "fab-x%d" % i, costs, ecmp_seed)
        left_peer = "fh-a" if i == 0 else chain_addr(i - 1, 1)
        right_peer = ("fh-b" if i == n_switches - 1
                      else chain_addr(i + 1, 0))
        switch.add_port(FabricNic(engine, "p0", chain_addr(i, 0)),
                        peer_addr=left_peer)
        switch.add_port(FabricNic(engine, "p1", chain_addr(i, 1)),
                        peer_addr=right_peer)
        table = switch.add_table(MatchTable("l3", "dst_ip", kind="lpm"))
        table.set(ip_a, (Forward(0),), prefix_len=32)
        table.set(ip_b, (Forward(1),), prefix_len=32)
        bed.switches.append(switch)

    for switch in bed.switches:
        bed.hosts.append(switch.host)
        bed.nics.extend(port.nic for port in switch.ports)

    _wire(bed, bed.nics[0], bed.switches[0].ports[0].nic, "host:a",
          propagation_us=HOST_LINK_PROPAGATION_US)
    for i in range(n_switches - 1):
        _wire(bed, bed.switches[i].ports[1].nic,
              bed.switches[i + 1].ports[0].nic, "chain:%d-%d" % (i, i + 1))
    _wire(bed, bed.nics[1], bed.switches[-1].ports[1].nic, "host:b",
          propagation_us=HOST_LINK_PROPAGATION_US)
    return bed
