"""Tests for the protocol graph structure and the packet-filter guards."""

import pytest

from repro.core import (
    GraphError,
    ProtocolGraph,
    ethertype_guard,
    ip_protocol_guard,
    tcp_port_guard,
    transport_redirect_guard,
    udp_dst_port_guard,
)
from repro.lang import VIEW
from repro.net.headers import (
    ETHERNET_HEADER,
    IPPROTO_TCP,
    IPPROTO_UDP,
    TCP_HEADER,
    UDP_HEADER,
)
from repro.spin import Mbuf


@pytest.fixture
def graph(kernel):
    return ProtocolGraph(kernel)


def handle_stub(kernel, label="h"):
    event = kernel.dispatcher.declare("Stub.%s" % label)
    return kernel.dispatcher.install(event, lambda *a: None, label=label)


class TestGraphStructure:
    def test_add_nodes_and_edges(self, kernel, graph):
        device = graph.add_node("ln0", "device")
        eth = graph.add_node("ethernet", "protocol")
        edge = graph.add_edge(device, eth, handle_stub(kernel))
        assert graph.edge_count() == 1
        assert edge in device.out_edges
        assert edge in eth.in_edges

    def test_duplicate_node_rejected(self, graph):
        graph.add_node("x", "protocol")
        with pytest.raises(GraphError):
            graph.add_node("x", "protocol")

    def test_unknown_kind_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.add_node("x", "mystery")

    def test_missing_node_lookup(self, graph):
        with pytest.raises(GraphError, match="no node"):
            graph.node("ghost")

    def test_remove_edge_uninstalls_handler(self, kernel, graph):
        a = graph.add_node("a", "protocol")
        b = graph.add_node("b", "extension")
        handle = handle_stub(kernel)
        edge = graph.add_edge(a, b, handle)
        graph.remove_edge(edge)
        assert not handle.installed
        assert graph.edge_count() == 0
        assert graph.removals == 1

    def test_render_mentions_guards(self, kernel, graph):
        a = graph.add_node("eth", "protocol")
        b = graph.add_node("ip", "protocol")
        event = kernel.dispatcher.declare("E")
        handle = kernel.dispatcher.install(
            event, lambda *a: None, guard=ethertype_guard(0x0800))
        graph.add_edge(a, b, handle)
        text = graph.render()
        assert "ethertype_0x0800" in text
        assert "eth" in text and "ip" in text


def eth_frame(ethertype: int) -> Mbuf:
    buf = bytearray(60)
    VIEW(buf, ETHERNET_HEADER).type = ethertype
    return Mbuf.from_bytes(buf).freeze()


class TestGuards:
    def test_ethertype_guard(self):
        guard = ethertype_guard(0x0800)
        assert guard(None, eth_frame(0x0800))
        assert not guard(None, eth_frame(0x0806))

    def test_ethertype_guard_runt_frame(self):
        guard = ethertype_guard(0x0800)
        assert not guard(None, Mbuf.from_bytes(b"tiny").freeze())

    def test_ip_protocol_guard(self):
        guard = ip_protocol_guard(IPPROTO_UDP)
        assert guard(IPPROTO_UDP, None, 0, 0, 0)
        assert not guard(IPPROTO_TCP, None, 0, 0, 0)

    def test_udp_port_guard(self):
        guard = udp_dst_port_guard(5000)
        assert guard(None, 0, 0, 0, 0, 5000)
        assert not guard(None, 0, 0, 0, 0, 5001)

    def _tcp_packet(self, dst_port: int) -> Mbuf:
        buf = bytearray(40)
        VIEW(buf, TCP_HEADER, offset=0).dst_port = dst_port
        return Mbuf.from_bytes(buf).freeze()

    def test_tcp_port_guard(self):
        guard = tcp_port_guard({80, 443})
        assert guard(self._tcp_packet(80), 0, 0, 0)
        assert guard(self._tcp_packet(443), 0, 0, 0)
        assert not guard(self._tcp_packet(22), 0, 0, 0)

    def test_redirect_guard_matches_protocol_and_port(self):
        guard = transport_redirect_guard(IPPROTO_TCP, 8080)
        packet = self._tcp_packet(8080)
        assert guard(IPPROTO_TCP, packet, 0, 0, 0)
        assert not guard(IPPROTO_UDP, packet, 0, 0, 0)
        assert not guard(IPPROTO_TCP, self._tcp_packet(9090), 0, 0, 0)

    def test_redirect_guard_udp(self):
        buf = bytearray(28)
        VIEW(buf, UDP_HEADER).dst_port = 53
        packet = Mbuf.from_bytes(buf).freeze()
        guard = transport_redirect_guard(IPPROTO_UDP, 53)
        assert guard(IPPROTO_UDP, packet, 0, 0, 0)

    def test_redirect_guard_rejects_other_protocols(self):
        with pytest.raises(ValueError):
            transport_redirect_guard(1, 80)  # ICMP

    def test_guards_work_on_frozen_packets(self):
        """Guards VIEW READONLY packets without copying (Figure 2)."""
        frame = eth_frame(0x0800)
        assert frame.frozen
        assert ethertype_guard(0x0800)(None, frame)
