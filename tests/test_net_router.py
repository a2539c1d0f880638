"""Tests for IP routing and the multi-homed router host."""

import struct

import pytest

from repro.core import Credential, PlexusStack
from repro.hw import EthernetSegment, LanceEthernet, PointToPointLink, T3Nic
from repro.lang import ephemeral
from repro.net import Router, RouterInterface, ip_aton, mac_aton
from repro.net.checksum import internet_checksum
from repro.net.ip import IpProto
from repro.sim import Engine, Signal
from repro.spin import SpinKernel

NET_A = ip_aton("10.1.0.0")
NET_B = ip_aton("10.2.0.0")


@ephemeral
def _noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


class TestRouteTable:
    def _stack(self):
        class FakeAdapter:
            mtu = 1500

            def __init__(self):
                self.sent = []

            def send(self, m, next_hop):
                self.sent.append((m.to_bytes(), next_hop))
        engine = Engine()
        kernel = SpinKernel(engine, "r")
        adapter = FakeAdapter()
        ip = IpProto(kernel, ip_aton("10.1.0.1"), adapter)
        return kernel, ip, adapter, FakeAdapter

    def test_default_is_on_link(self):
        _k, ip, adapter, _F = self._stack()
        chosen, next_hop = ip.route_for(ip_aton("10.9.9.9"))
        assert chosen is adapter
        assert next_hop == ip_aton("10.9.9.9")

    def test_gateway_route(self):
        _k, ip, adapter, _F = self._stack()
        ip.add_route(NET_B, 16, gateway=ip_aton("10.1.0.254"))
        chosen, next_hop = ip.route_for(ip_aton("10.2.3.4"))
        assert chosen is adapter
        assert next_hop == ip_aton("10.1.0.254")

    def test_longest_prefix_wins(self):
        _k, ip, adapter, FakeAdapter = self._stack()
        other = FakeAdapter()
        ip.add_route(NET_B, 16, gateway=ip_aton("10.1.0.254"))
        ip.add_route(ip_aton("10.2.5.0"), 24, adapter=other)
        chosen, next_hop = ip.route_for(ip_aton("10.2.5.9"))
        assert chosen is other
        assert next_hop == ip_aton("10.2.5.9")
        chosen, _hop = ip.route_for(ip_aton("10.2.6.9"))
        assert chosen is adapter

    def test_invalid_prefix_rejected(self):
        _k, ip, _a, _F = self._stack()
        with pytest.raises(ValueError):
            ip.add_route(NET_B, 40)


def build_routed_world():
    """Two Ethernet segments joined by a router; a Plexus host on each."""
    engine = Engine()
    seg_a = EthernetSegment(engine)
    seg_b = EthernetSegment(engine)

    def plexus_host(name, segment, address, index):
        kernel = SpinKernel(engine, name)
        nic = LanceEthernet(engine, "ln0",
                            mac_aton("02:00:00:00:0%d:01" % index))
        kernel.add_nic(nic)
        segment.attach(nic)
        stack = PlexusStack(kernel, nic, address)
        return kernel, nic, stack

    host_a = plexus_host("host-a", seg_a, ip_aton("10.1.0.10"), 1)
    host_b = plexus_host("host-b", seg_b, ip_aton("10.2.0.10"), 2)

    router_kernel = SpinKernel(engine, "router")
    nic_ra = LanceEthernet(engine, "ln0", mac_aton("02:00:00:00:01:fe"))
    nic_rb = LanceEthernet(engine, "ln1", mac_aton("02:00:00:00:02:fe"))
    router_kernel.add_nic(nic_ra)
    router_kernel.add_nic(nic_rb)
    seg_a.attach(nic_ra)
    seg_b.attach(nic_rb)
    router = Router(router_kernel, [
        RouterInterface(nic_ra, ip_aton("10.1.0.1")),
        RouterInterface(nic_rb, ip_aton("10.2.0.1")),
    ])
    router.add_route(NET_A, 16, interface_index=0)
    router.add_route(NET_B, 16, interface_index=1)

    # End hosts: remote subnet via the router on their segment.
    host_a[2].ip.add_route(NET_B, 16, gateway=ip_aton("10.1.0.1"))
    host_b[2].ip.add_route(NET_A, 16, gateway=ip_aton("10.2.0.1"))
    return engine, host_a, host_b, router


def build_mixed_media_world():
    """An Ethernet host and a T3 host joined by a router with one leg on
    each medium."""
    engine = Engine()
    seg = EthernetSegment(engine)
    t3_link = PointToPointLink(engine, bandwidth_bps=45e6)

    # Ethernet host.
    kernel_e = SpinKernel(engine, "eth-host")
    nic_e = LanceEthernet(engine, "ln0", mac_aton("02:00:00:00:01:01"))
    kernel_e.add_nic(nic_e)
    seg.attach(nic_e)
    stack_e = PlexusStack(kernel_e, nic_e, ip_aton("10.1.0.10"))
    stack_e.ip.add_route(NET_B, 16, gateway=ip_aton("10.1.0.1"))

    # T3 host.
    kernel_t = SpinKernel(engine, "t3-host")
    nic_t = T3Nic(engine, "t3", "t3-host-addr")
    kernel_t.add_nic(nic_t)
    t3_link.attach(nic_t)
    stack_t = PlexusStack(
        kernel_t, nic_t, ip_aton("10.2.0.10"), link="raw",
        neighbors={ip_aton("10.2.0.1"): "t3-router-addr"})
    stack_t.ip.add_route(NET_A, 16, gateway=ip_aton("10.2.0.1"))

    # The router: one Ethernet leg, one T3 leg.
    kernel_r = SpinKernel(engine, "router")
    nic_ra = LanceEthernet(engine, "ln0", mac_aton("02:00:00:00:01:fe"))
    nic_rb = T3Nic(engine, "t3", "t3-router-addr")
    kernel_r.add_nic(nic_ra)
    kernel_r.add_nic(nic_rb)
    seg.attach(nic_ra)
    t3_link.attach(nic_rb)
    router = Router(kernel_r, [
        RouterInterface(nic_ra, ip_aton("10.1.0.1")),
        RouterInterface(nic_rb, ip_aton("10.2.0.1"), link="raw",
                        neighbors={ip_aton("10.2.0.10"): "t3-host-addr"}),
    ])
    router.add_route(NET_A, 16, interface_index=0)
    router.add_route(NET_B, 16, interface_index=1)
    return engine, kernel_t, stack_t, stack_e, router


class TestRouterForwarding:
    def test_udp_across_subnets(self):
        engine, (ka, _na, sa), (kb, _nb, sb), router = build_routed_world()
        got = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append((bytes(m.to_bytes()[off:]), src_ip))
        sb.udp_manager.bind(Credential("srv"), 7000, handler)
        sender = sa.udp_manager.bind(Credential("cli"), 7001, _noop)
        engine.run_process(ka.kernel_path(
            lambda: sender.send(b"across the router", ip_aton("10.2.0.10"),
                                7000)))
        engine.run()
        assert got == [(b"across the router", ip_aton("10.1.0.10"))]
        assert router.forwarded >= 1

    def test_tcp_across_subnets(self):
        engine, (ka, _na, sa), (kb, _nb, sb), router = build_routed_world()
        got = []

        def on_accept(tcb):
            tcb.on_data = lambda data, t=tcb: t.send(data[::-1])
        sb.tcp_manager.listen(Credential("srv"), 9000, on_accept)
        replies = []
        done = Signal(engine)

        def run():
            def connect():
                tcb = sa.tcp_manager.connect(Credential("cli"),
                                             ip_aton("10.2.0.10"), 9000)
                tcb.on_data = lambda data: (replies.append(data),
                                            ka.defer(done.fire))
                tcb.on_established = lambda: tcb.send(b"forward")
            waiter = done.wait()
            yield from ka.kernel_path(connect)
            yield waiter
        engine.run_process(run())
        assert replies == [b"drawrof"]
        assert router.forwarded >= 3  # SYN, ACKs, data each way

    def test_router_decrements_ttl(self):
        engine, (ka, _na, sa), (kb, _nb, sb), router = build_routed_world()
        seen_ttl = []

        @ephemeral
        def handler(proto, m, off, src, dst):
            from repro.lang.view import VIEW
            from repro.net.headers import IP_HEADER
            header = VIEW(m.data, IP_HEADER, offset=off - 20)
            seen_ttl.append(header.ttl)
        sb.ip_manager.claim_protocol(Credential("probe"), 99, handler)
        send = sa.ip_manager.send_capability(Credential("cli"))

        def work():
            m = ka.mbufs.from_bytes(b"ttl probe", leading_space=64)
            send(m, ip_aton("10.2.0.10"), 99)
        engine.run_process(ka.kernel_path(work))
        engine.run()
        assert seen_ttl == [63]  # started at 64, one hop

    def test_ttl_expiry_generates_icmp(self):
        engine, (ka, _na, sa), (kb, _nb, sb), router = build_routed_world()
        exceeded = []
        sa.icmp.on_time_exceeded = lambda quote: exceeded.append(quote)

        def work():
            m = ka.mbufs.from_bytes(b"dying packet", leading_space=64)
            sa.ip.output(m, ip_aton("10.2.0.10"), 99, ttl=1)
        engine.run_process(ka.kernel_path(work))
        engine.run()
        assert router.ip.ttl_expired == 1
        assert len(exceeded) == 1

    def test_router_answers_ping(self):
        engine, (ka, _na, sa), _b, router = build_routed_world()
        replies = []
        sa.icmp.on_echo_reply = (
            lambda ident, seq, payload, src: replies.append(src))
        engine.run_process(ka.kernel_path(
            lambda: sa.icmp.send_echo_request(ip_aton("10.1.0.1"), 1, 1)))
        engine.run()
        assert replies == [ip_aton("10.1.0.1")]

    def test_requires_two_interfaces(self, engine):
        kernel = SpinKernel(engine, "r")
        nic = LanceEthernet(engine, "ln0", b"\x02" + b"\x00" * 5)
        kernel.add_nic(nic)
        with pytest.raises(ValueError):
            Router(kernel, [RouterInterface(nic, ip_aton("10.0.0.1"))])

    def test_mixed_media_router_fragments_toward_small_mtu(self):
        """A T3 host (MTU 4470) sends a big datagram to an Ethernet host
        (MTU 1500): the router fragments in transit, the receiver
        reassembles."""
        engine, kernel_t, stack_t, stack_e, router = build_mixed_media_world()
        got = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append(m.length() - off)
        stack_e.udp_manager.bind(Credential("srv"), 7000, handler)
        sender = stack_t.udp_manager.bind(Credential("cli"), 7001, _noop)

        # 4000-byte datagram: one T3 frame, three Ethernet fragments.
        engine.run_process(kernel_t.kernel_path(
            lambda: sender.send(bytes(4000), ip_aton("10.1.0.10"), 7000)))
        engine.run()
        assert got == [4000]
        assert router.ip.fragments_out >= 3  # fragmented in transit
        assert stack_e.ip.reassembled == 1

    def test_dont_fragment_drop_is_not_counted_as_forwarded(self):
        """A DF packet too big for the egress MTU is dropped as a header
        error and not counted as forwarded; the same packet without DF
        is forwarded once, as three fragments."""
        engine, kernel_t, stack_t, stack_e, router = build_mixed_media_world()
        dst = ip_aton("10.1.0.10")

        def send_raw(frag_field):
            header = bytearray(struct.pack(
                "!BBHHHBBHII", 0x45, 0, 20 + 4000, 1, frag_field, 64, 99, 0,
                ip_aton("10.2.0.10"), dst))
            header[10:12] = internet_checksum(header).to_bytes(2, "big")

            def work():
                adapter, next_hop = stack_t.ip.route_for(dst)
                adapter.send(kernel_t.mbufs.from_bytes(
                    bytes(header) + bytes(4000)), next_hop)
            engine.run_process(kernel_t.kernel_path(work))
            engine.run()

        send_raw(0x4000)                     # DF set
        assert (router.forwarded, router.ip.header_errors,
                router.ip.fragments_out) == (0, 1, 0)
        send_raw(0)
        assert (router.forwarded, router.ip.header_errors,
                router.ip.fragments_out) == (1, 1, 3)

    def test_fragmentation_toward_smaller_mtu(self):
        """A big datagram forwarded onto the same-MTU segment still
        arrives whole (router emits what fits)."""
        engine, (ka, _na, sa), (kb, _nb, sb), router = build_routed_world()
        got = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append(m.length() - off)
        sb.udp_manager.bind(Credential("srv"), 7000, handler)
        sender = sa.udp_manager.bind(Credential("cli"), 7001, _noop)
        engine.run_process(ka.kernel_path(
            lambda: sender.send(bytes(4000), ip_aton("10.2.0.10"), 7000)))
        engine.run()
        assert got == [4000]
        assert sb.ip.reassembled == 1  # fragmented by A, carried, rebuilt
