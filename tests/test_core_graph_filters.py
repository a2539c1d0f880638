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


class TestGraphStructure:
    def test_add_nodes_and_edges(self, kernel, graph):
        graph.add_node("ln0", "device")
        graph.add_node("ethernet", "protocol")
        event = kernel.dispatcher.declare("Ethernet.PacketRecv")
        handle = graph.install(event, lambda *a: None, "ethernet", "am")
        assert handle.node == "am"
        assert graph.edges() == [("ethernet", handle)]
        assert graph.nodes == {"ln0": "device", "ethernet": "protocol",
                               "am": "extension"}

    def test_duplicate_node_rejected(self, graph):
        graph.add_node("x", "protocol")
        with pytest.raises(GraphError):
            graph.add_node("x", "protocol")

    def test_unknown_kind_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.add_node("x", "mystery")

    def test_missing_node_lookup(self, kernel, graph):
        event = kernel.dispatcher.declare("Ghost.PacketRecv")
        with pytest.raises(GraphError, match="no node"):
            graph.install(event, lambda *a: None, "ghost", "x")
        assert event.handlers == []

    def test_event_has_one_source(self, kernel, graph):
        graph.add_node("a", "protocol")
        graph.add_node("b", "protocol")
        event = kernel.dispatcher.declare("A.Evt")
        graph.install(event, lambda *a: None, "a", "x")
        with pytest.raises(GraphError, match="raised by 'a'"):
            graph.install(event, lambda *a: None, "b", "y")

    def test_uninstall_drops_edge_and_extension_node(self, kernel, graph):
        graph.add_node("a", "protocol")
        event = kernel.dispatcher.declare("A.Evt")
        handle = graph.install(event, lambda *a: None, "a", "b")
        handle.uninstall()
        assert graph.edge_count() == 0
        assert graph.nodes == {"a": "protocol"}

    def test_handlers_installed_around_the_graph_are_not_edges(self, kernel,
                                                               graph):
        graph.add_node("a", "protocol")
        event = kernel.dispatcher.declare("A.Evt")
        graph.install(event, lambda *a: None, "a", "b")
        kernel.dispatcher.install(event, lambda *a: None)
        assert graph.edge_count() == 1

    def test_render_mentions_guards(self, kernel, graph):
        """Declared nodes in declaration order, each node's edges in
        handler order, then extension nodes in first-edge order."""
        graph.add_node("eth", "protocol")
        graph.add_node("ip", "protocol")
        ip_event = kernel.dispatcher.declare("IP")
        eth_event = kernel.dispatcher.declare("E")
        graph.install(ip_event, lambda *a: None, "ip", "udp:7")
        graph.install(eth_event, lambda *a: None, "eth", "am")
        graph.install(eth_event, lambda *a: None, "eth", "ip",
                      guard=ethertype_guard(0x0800))
        assert graph.render().splitlines() == [
            "protocol graph of %s:" % kernel.name,
            "  [protocol] eth",
            "    --(always?)--> am",
            "    --(ethertype_0x0800?)--> ip",
            "  [protocol] ip",
            "    --(always?)--> udp:7",
            "  [extension] am",
            "  [extension] udp:7",
        ]


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
