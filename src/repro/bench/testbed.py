"""Testbed construction: the paper's machine room in one call.

The paper's testbed (section 4): pairs of DEC 3000/400 workstations
joined by a private 10 Mb/s Ethernet segment, a Fore ATM switch, or
back-to-back DEC T3 adapters.  :func:`build_testbed` assembles any of the
three, running either OS model on every host:

    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    bed.stacks[0].udp_manager.bind(...)

Raw "driver-to-driver" hosts (no protocol stack at all) are available via
:func:`build_raw_pair` for the hardware-floor measurements of Figure 5.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.plexus import PlexusStack
from ..hw.alpha import ALPHA_21064, CostTable
from ..hw.cpu import INTERRUPT_PRIORITY
from ..hw.host import Host
from ..hw.link import (
    EthernetSegment,
    Frame,
    PointToPointLink,
    Switch,
)
from ..hw.nic import ForeAtm, LanceEthernet, NIC, T3Nic
from ..net.headers import ip_aton, mac_aton
from ..sim import Engine
from ..spin.kernel import SpinKernel
from ..unixos.kernelnet import UnixKernel, UnixStack
from ..unixos.sockets import SocketLayer

__all__ = [
    "Testbed",
    "build_testbed",
    "build_raw_pair",
    "DEVICES",
    "OSES",
]

DEVICES = ("ethernet", "atm", "t3")
OSES = ("spin", "unix")


class Testbed:
    """A built network of simulated hosts."""

    def __init__(self, engine: Engine, os_name: str, device: str):
        self.engine = engine
        self.os_name = os_name
        self.device = device
        self.hosts: List[Host] = []
        self.nics: List[NIC] = []
        self.stacks: List[object] = []       # PlexusStack or UnixStack
        self.sockets: List[Optional[SocketLayer]] = []
        self.ips: List[int] = []
        self.medium = None

    def ip(self, index: int) -> int:
        return self.ips[index]

    def media(self) -> List[object]:
        """Every impairable wire: the medium itself, or a switch's ports."""
        if isinstance(self.medium, Switch):
            return list(self.medium.ports)
        return [self.medium] if self.medium is not None else []


def _make_nic(engine: Engine, device: str, index: int,
              fast_driver: bool) -> NIC:
    if device == "ethernet":
        return LanceEthernet(engine, "ln0",
                             mac_aton("08:00:2b:00:00:%02x" % index),
                             fast_driver=fast_driver)
    if device == "atm":
        return ForeAtm(engine, "fa0", "atm-%d" % index, fast_driver=fast_driver)
    if device == "t3":
        return T3Nic(engine, "t3-0", "t3-%d" % index)
    raise ValueError("unknown device %r (choose from %s)" % (device, DEVICES))


def build_testbed(os_name: str, device: str, n_hosts: int = 2,
                  deliver_mode: str = "interrupt", fast_driver: bool = False,
                  warm_arp: bool = True,
                  costs: CostTable = ALPHA_21064,
                  engine: Optional[Engine] = None) -> Testbed:
    """Assemble ``n_hosts`` machines on one medium running one OS model."""
    if os_name not in OSES:
        raise ValueError("unknown OS %r (choose from %s)" % (os_name, OSES))
    if device == "t3" and n_hosts != 2:
        raise ValueError("T3 adapters connect back-to-back: exactly 2 hosts")
    engine = engine or Engine()
    bed = Testbed(engine, os_name, device)

    if device == "ethernet":
        bed.medium = EthernetSegment(engine, bandwidth_bps=10e6)
    elif device == "atm":
        bed.medium = Switch(engine, bandwidth_bps=155e6, forward_latency_us=10.0,
                            name="forerunner")
    else:
        bed.medium = PointToPointLink(engine, bandwidth_bps=45e6,
                                      propagation_us=1.0)

    link_kind = "ethernet" if device == "ethernet" else "raw"
    for i in range(1, n_hosts + 1):
        nic = _make_nic(engine, device, i, fast_driver)
        my_ip = ip_aton("10.1.0.%d" % i)
        if os_name == "spin":
            host = SpinKernel(engine, "spin-h%d" % i, costs=costs)
        else:
            host = UnixKernel(engine, "unix-h%d" % i, costs=costs)
        host.add_nic(nic)
        if device == "atm":
            port = bed.medium.new_port()
            port.attach(nic)
        else:
            bed.medium.attach(nic)
        bed.hosts.append(host)
        bed.nics.append(nic)
        bed.ips.append(my_ip)

    # Neighbor tables for the non-broadcast media.
    neighbor_maps: List[Dict[int, object]] = []
    for i in range(n_hosts):
        neighbors = {bed.ips[j]: bed.nics[j].address
                     for j in range(n_hosts) if j != i}
        neighbor_maps.append(neighbors)

    for i in range(n_hosts):
        if os_name == "spin":
            stack = PlexusStack(bed.hosts[i], bed.nics[i], bed.ips[i],
                                deliver_mode=deliver_mode, link=link_kind,
                                neighbors=neighbor_maps[i])
            bed.sockets.append(None)
        else:
            stack = UnixStack(bed.hosts[i], bed.nics[i], bed.ips[i],
                              link=link_kind, neighbors=neighbor_maps[i])
            bed.sockets.append(SocketLayer(stack))
        bed.stacks.append(stack)

    if device == "ethernet" and warm_arp:
        for i in range(n_hosts):
            for j in range(n_hosts):
                if i != j:
                    bed.stacks[i].arp.add_entry(bed.ips[j], bed.nics[j].address)
    return bed


class RawEchoHost(Host):
    """Driver-to-driver floor: no protocol stack at all.

    The responder reflects every frame straight back from its interrupt
    handler; the initiator records arrival times through ``on_frame``.
    """

    def __init__(self, engine: Engine, name: str, echo: bool,
                 costs: CostTable = ALPHA_21064):
        super().__init__(engine, name, costs=costs)
        self.echo = echo
        self.on_frame: Optional[Callable[[bytes], None]] = None

    def frame_arrived(self, nic: NIC, frame: Frame) -> None:
        def interrupt_body() -> None:
            costs = self.costs
            self.cpu.charge(costs.interrupt_entry, "interrupt")
            nic.driver_recv_charges(frame)
            if self.echo:
                nic.stage_tx(frame.data, frame.src_addr)
            elif self.on_frame is not None:
                self.on_frame(frame.data)
            self.cpu.charge(costs.interrupt_exit, "interrupt")
        self.spawn_kernel_path(interrupt_body, priority=INTERRUPT_PRIORITY,
                               name="raw-intr")


def build_raw_pair(device: str, fast_driver: bool = False,
                   costs: CostTable = ALPHA_21064,
                   engine: Optional[Engine] = None):
    """Two stackless hosts for the hardware-floor ping-pong."""
    engine = engine or Engine()
    initiator = RawEchoHost(engine, "raw-a", echo=False, costs=costs)
    responder = RawEchoHost(engine, "raw-b", echo=True, costs=costs)
    nic_a = _make_nic(engine, device, 1, fast_driver)
    nic_b = _make_nic(engine, device, 2, fast_driver)
    initiator.add_nic(nic_a)
    responder.add_nic(nic_b)
    if device == "ethernet":
        medium = EthernetSegment(engine, bandwidth_bps=10e6)
        medium.attach(nic_a)
        medium.attach(nic_b)
    elif device == "atm":
        medium = Switch(engine, bandwidth_bps=155e6, forward_latency_us=10.0)
        medium.new_port().attach(nic_a)
        medium.new_port().attach(nic_b)
    else:
        medium = PointToPointLink(engine, bandwidth_bps=45e6, propagation_us=1.0)
        medium.attach(nic_a)
        medium.attach(nic_b)
    return engine, initiator, responder, nic_a, nic_b
