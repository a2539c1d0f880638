"""Test harness: two protocol stacks joined by a direct, lossy wire.

For protocol-unit tests (IP fragmentation, TCP retransmission...) the full
NIC/driver machinery is noise; this harness wires two hosts' IP layers
together with a configurable delay and a drop filter, which makes loss
injection trivial.
"""

from repro.net.checksum import internet_checksum
from repro.net.headers import (
    ETHERNET_HEADER,
    ETHERTYPE_IP,
    IP_HEADER,
    IPPROTO_TCP,
    IPPROTO_UDP,
    TCP_HEADER,
    UDP_HEADER,
    ip_aton,
    pseudo_header_sum,
)
from repro.net.ip import IpProto
from repro.net.tcp import TcpProto
from repro.net.udp import UdpProto
from repro.net.icmp import IcmpProto
from repro.sim import Engine
from repro.spin.kernel import SpinKernel


class DirectWire:
    """Delivers IP packets between registered stacks with a fixed delay."""

    def __init__(self, engine, delay_us: float = 40.0):
        self.engine = engine
        self.delay_us = delay_us
        self.stacks = {}          # ip address -> DirectStack
        self.sent = []            # (src_host, bytes, next_hop)
        #: test hook: drop_filter(packet_bytes, next_hop) -> True to drop
        self.drop_filter = None
        #: test hook: delay_filter(packet_bytes, next_hop) -> extra delay
        #: in microseconds, to deliver a packet behind later ones
        self.delay_filter = None
        self.drops = 0

    def register(self, stack):
        self.stacks[stack.ip.my_ip] = stack

    def carry(self, sender, packet_bytes: bytes, next_hop: int) -> None:
        self.sent.append((sender, packet_bytes, next_hop))
        if self.drop_filter is not None and self.drop_filter(packet_bytes, next_hop):
            self.drops += 1
            return
        target = self.stacks.get(next_hop)
        if target is None:
            return
        delay = self.delay_us
        if self.delay_filter is not None:
            delay += self.delay_filter(packet_bytes, next_hop)

        def deliver():
            yield self.engine.timeout(delay)
            m = target.host.mbufs  # noqa: F841 - pool exists
            def work():
                chain = target.host.mbufs.from_bytes(packet_bytes)
                target.ip.input(chain, 0)
            yield from target.host.kernel_path(work)
        self.engine.process(deliver(), name="wire-deliver")


class _DirectLower:
    """The 'link adapter' face of the wire for one stack."""

    def __init__(self, wire: DirectWire, stack, mtu: int):
        self.wire = wire
        self.stack = stack
        self.mtu = mtu

    def send(self, m, next_hop: int) -> None:
        self.wire.carry(self.stack, m.to_bytes(), next_hop)


class DirectStack:
    """One host with IP/ICMP/UDP/TCP over the direct wire."""

    def __init__(self, engine, wire: DirectWire, name: str, address: str,
                 mtu: int = 1500):
        self.host = SpinKernel(engine, name)
        self.my_ip = ip_aton(address)
        self.lower = _DirectLower(wire, self, mtu)
        self.ip = IpProto(self.host, self.my_ip, self.lower)
        self.icmp = IcmpProto(self.host, self.ip)
        self.udp = UdpProto(self.host, self.ip)
        self.tcp = TcpProto(self.host, self.ip)
        from repro.net.headers import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP

        def demux(protocol, m, off, src, dst):
            if protocol == IPPROTO_UDP:
                self.udp.input(m, off, src, dst)
            elif protocol == IPPROTO_TCP:
                self.tcp.input(m, off, src, dst)
            elif protocol == IPPROTO_ICMP:
                self.icmp.input(m, off, src, dst)
        self.ip.upcall = demux
        wire.register(self)

    def run_kernel(self, fn):
        """Spawn plain kernel code on this host."""
        return self.host.spawn_kernel_path(fn)


def make_pair(mtu: int = 1500, delay_us: float = 40.0):
    """(engine, wire, stack_a, stack_b) ready for protocol tests."""
    engine = Engine()
    wire = DirectWire(engine, delay_us)
    a = DirectStack(engine, wire, "host-a", "10.0.0.1", mtu=mtu)
    b = DirectStack(engine, wire, "host-b", "10.0.0.2", mtu=mtu)
    return engine, wire, a, b


# -- hand-built packets, put on a testbed's wire -------------------------------

#: the shortest Ethernet frame a driver sends, less the CRC: a shorter
#: frame reaches the receiver with zero padding after the datagram.
ETHER_MIN_FRAME = 60


def ip_datagram(src: int, dst: int, protocol: int, payload: bytes) -> bytes:
    """An IPv4 datagram with a valid header checksum."""
    header = bytearray(IP_HEADER.size)
    IP_HEADER.pack_into(header, 0, 0x45, 0, IP_HEADER.size + len(payload), 1,
                        0, 64, protocol, 0, src, dst)
    header[10:12] = internet_checksum(header).to_bytes(2, "big")
    return bytes(header) + payload


def udp_datagram(src: int, dst: int, sport: int, dport: int,
                 data: bytes) -> bytes:
    """An IP datagram carrying a checksummed UDP datagram."""
    segment = bytearray(UDP_HEADER.size) + data
    UDP_HEADER.pack_into(segment, 0, sport, dport, len(segment), 0)
    segment[6:8] = (internet_checksum(segment, initial=pseudo_header_sum(
        src, dst, IPPROTO_UDP, len(segment))) or 0xFFFF).to_bytes(2, "big")
    return ip_datagram(src, dst, IPPROTO_UDP, bytes(segment))


def tcp_datagram(src: int, dst: int, sport: int, dport: int, flags: int,
                 data: bytes = b"") -> bytes:
    """An IP datagram carrying a checksummed TCP segment (seq 1000)."""
    segment = bytearray(TCP_HEADER.size) + data
    TCP_HEADER.pack_into(segment, 0, sport, dport, 1000, 0, (5 << 12) | flags,
                         8192, 0, 0)
    segment[16:18] = internet_checksum(segment, initial=pseudo_header_sum(
        src, dst, IPPROTO_TCP, len(segment))).to_bytes(2, "big")
    return ip_datagram(src, dst, IPPROTO_TCP, bytes(segment))


def put_frame(bed, datagram: bytes, pad_to: int = ETHER_MIN_FRAME) -> None:
    """Host 0's driver sends host 1 an Ethernet frame carrying
    ``datagram``, zero-padded to ``pad_to`` bytes; the bed runs dry."""
    tx, rx = bed.nics[0], bed.nics[1]
    frame = bytearray(ETHERNET_HEADER.size)
    ETHERNET_HEADER.pack_into(frame, 0, rx.address, tx.address, ETHERTYPE_IP)
    frame += datagram
    frame += bytes(max(0, pad_to - len(frame)))
    bed.engine.run_process(bed.hosts[0].kernel_path(
        lambda: tx.stage_tx(bytes(frame), rx.address)))
    bed.engine.run()
