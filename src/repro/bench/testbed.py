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

from typing import Callable, Dict, List, Optional, Tuple

from ..core.plexus import PlexusStack
from ..hw.alpha import ALPHA_21064, CostTable
from ..hw.host import Host
from ..hw.link import EthernetSegment, Frame, PointToPointLink, Switch
from ..hw.nic import ForeAtm, LanceEthernet, NIC, T3Nic
from ..net.headers import ip_aton, mac_aton
from ..sim import Engine
from ..spin.kernel import SpinKernel
from ..unixos.kernelnet import UnixKernel, UnixStack
from ..unixos.sockets import SocketLayer

__all__ = ["Testbed", "build_testbed", "build_raw_pair", "DEVICES", "OSES"]

DEVICES = ("ethernet", "atm", "t3")
OSES = ("spin", "unix")


class Testbed:
    """A built network of simulated hosts."""

    def __init__(self, engine: Engine, os_name: str, device: str,
                 deliver_mode: str, costs: CostTable):
        self.engine = engine
        self.os_name = os_name
        self.device = device
        self.deliver_mode = deliver_mode     # of every SPIN stack
        self.costs = costs                   # of every host
        self.hosts: List[Host] = []
        self.nics: List[NIC] = []
        self.stacks: List[object] = []       # PlexusStack or UnixStack
        self.sockets: List[Optional[SocketLayer]] = []
        self.ips: List[int] = []
        self.medium = None

    def add_host(self, name: str, nic: NIC, ip: int, link: str,
                 neighbors: Dict[int, object]) -> None:
        """One more machine: a kernel of the bed's OS carrying ``nic``, its
        protocol stack on ``ip`` and, under UNIX, the socket layer."""
        spin = self.os_name == "spin"
        host = (SpinKernel if spin else UnixKernel)(self.engine, name, costs=self.costs)
        host.add_nic(nic)
        if spin:
            stack = PlexusStack(host, nic, ip, deliver_mode=self.deliver_mode,
                                link=link, neighbors=neighbors)
        else:
            stack = UnixStack(host, nic, ip, link=link, neighbors=neighbors)
        self.hosts.append(host)
        self.nics.append(nic)
        self.ips.append(ip)
        self.stacks.append(stack)
        self.sockets.append(None if spin else SocketLayer(stack))

    def ip(self, index: int) -> int:
        return self.ips[index]

    def media(self) -> List[object]:
        """Every impairable wire: the medium itself, or a switch's ports."""
        if isinstance(self.medium, Switch):
            return list(self.medium.ports)
        return [self.medium] if self.medium is not None else []


def _make_nic(engine: Engine, device: str, index: int, fast_driver: bool) -> NIC:
    if device == "ethernet":
        return LanceEthernet(engine, "ln0", mac_aton("08:00:2b:00:00:%02x" % index),
                             fast_driver=fast_driver)
    if device == "atm":
        return ForeAtm(engine, "fa0", "atm-%d" % index, fast_driver=fast_driver)
    if device == "t3":
        return T3Nic(engine, "t3-0", "t3-%d" % index)
    raise ValueError("unknown device %r (choose from %s)" % (device, DEVICES))


def _make_medium(engine: Engine, device: str):
    """A private Ethernet segment, the Fore switch, or back-to-back T3."""
    if device == "ethernet":
        return EthernetSegment(engine, bandwidth_bps=10e6)
    if device == "atm":
        return Switch(engine, bandwidth_bps=155e6, forward_latency_us=10.0,
                      name="forerunner")
    return PointToPointLink(engine, bandwidth_bps=45e6, propagation_us=1.0)


def _plug(medium, nic: NIC) -> None:
    (medium.new_port() if isinstance(medium, Switch) else medium).attach(nic)


def build_testbed(os_name: str, device: str, n_hosts: int = 2,
                  deliver_mode: str = "interrupt", fast_driver: bool = False,
                  warm_arp: bool = True,
                  costs: CostTable = ALPHA_21064) -> Testbed:
    """Assemble ``n_hosts`` machines on one medium running one OS model."""
    if os_name not in OSES:
        raise ValueError("unknown OS %r (choose from %s)" % (os_name, OSES))
    if device == "t3" and n_hosts != 2:
        raise ValueError("T3 adapters connect back-to-back: exactly 2 hosts")
    engine = Engine()
    bed = Testbed(engine, os_name, device, deliver_mode, costs)
    bed.medium = _make_medium(engine, device)
    link_kind = "ethernet" if device == "ethernet" else "raw"
    nics = [_make_nic(engine, device, i, fast_driver) for i in range(1, n_hosts + 1)]
    ips = [ip_aton("10.1.0.%d" % i) for i in range(1, n_hosts + 1)]
    for i in range(n_hosts):
        # Every other host's link address: the neighbor table of the
        # non-broadcast media, the warmed ARP cache of the Ethernet.
        peers = {ips[j]: nics[j].address for j in range(n_hosts) if j != i}
        bed.add_host("%s-h%d" % (os_name, i + 1), nics[i], ips[i], link_kind, peers)
        _plug(bed.medium, nics[i])
        if device == "ethernet" and warm_arp:
            for peer_ip, mac in peers.items():
                bed.stacks[i].arp.add_entry(peer_ip, mac)
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

    def frame_arrived(self, arrival: Tuple[NIC, Frame]) -> None:
        # The echo needs the frame's link source, which a device input
        # never sees: bind the step per frame, then take the one path.
        nic, frame = arrival

        def echo_or_record(nic_: NIC, data: bytes) -> None:
            if self.echo:
                nic_.stage_tx(data, frame.src_addr)
            elif self.on_frame is not None:
                self.on_frame(data)
        self._device_input[nic.name] = (echo_or_record, "raw-intr")
        super().frame_arrived(arrival)


def build_raw_pair(device: str, fast_driver: bool = False,
                   costs: CostTable = ALPHA_21064):
    """Two stackless hosts for the hardware-floor ping-pong."""
    engine = Engine()
    initiator = RawEchoHost(engine, "raw-a", echo=False, costs=costs)
    responder = RawEchoHost(engine, "raw-b", echo=True, costs=costs)
    nic_a = _make_nic(engine, device, 1, fast_driver)
    nic_b = _make_nic(engine, device, 2, fast_driver)
    medium = _make_medium(engine, device)
    for host, nic in ((initiator, nic_a), (responder, nic_b)):
        host.add_nic(nic)
        _plug(medium, nic)
    return engine, initiator, responder, nic_a, nic_b
