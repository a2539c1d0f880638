"""Tests for the assembled Plexus stack: Figure 1 live.

Runtime adaptation, extension linking, multiple protocol implementations,
read-only packet delivery -- the architecture-level claims.
"""

import pytest

from repro.core import AppExtension, Credential
from repro.lang import ReadOnlyViolation, ephemeral
from repro.spin import LinkError, UnresolvedSymbol, compile_extension
from repro.sim import Signal


@ephemeral
def noop(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


def kpath(bed, index, fn):
    bed.engine.run_process(bed.hosts[index].kernel_path(fn))
    bed.engine.run()


class TestGraphAssembly:
    def test_figure_one_nodes_present(self, spin_pair):
        graph = spin_pair.stacks[0].graph
        for name in ("ethernet", "arp", "ip", "udp", "tcp", "icmp"):
            assert name in graph.nodes

    def test_kernel_edges_installed(self, spin_pair):
        graph = spin_pair.stacks[0].graph
        # eth->ip, eth->arp, ip->udp, ip->tcp, ip->icmp, tcp->standard.
        assert graph.edge_count() == 6

    def test_raw_link_stack_has_no_arp(self):
        from repro.bench.testbed import build_testbed
        bed = build_testbed("spin", "t3")
        graph = bed.stacks[0].graph
        assert "arp" not in graph.nodes
        assert "link" in graph.nodes

    def test_invalid_modes_rejected(self, spin_pair):
        from repro.core.plexus import PlexusStack
        bed = spin_pair
        with pytest.raises(ValueError):
            PlexusStack(bed.hosts[0], bed.nics[0], 1, deliver_mode="magic")


class TestPacketsAreReadOnly:
    def test_handler_sees_frozen_packet(self, spin_pair):
        """Section 3.4: extensions share buffers but cannot modify them."""
        bed = spin_pair
        outcome = {}

        @ephemeral
        def prodding_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            outcome["frozen"] = m.frozen
            before = m.to_bytes()
            try:
                m.writable_data()
                outcome["mutated"] = True
            except ReadOnlyViolation:
                outcome["mutated"] = False
            try:
                m.data[off] ^= 0xFF
                outcome["written"] = True
            except TypeError:
                outcome["written"] = m.to_bytes() != before
        bed.stacks[1].udp_manager.bind(Credential("probe"), 7700,
                                       prodding_handler)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7600, noop)
        kpath(bed, 0, lambda: sender.send(b"untouchable", bed.ip(1), 7700))
        assert outcome == {"frozen": True, "mutated": False, "written": False}


class TestRuntimeAdaptation:
    def test_install_uninstall_while_traffic_flows(self, spin_pair):
        """Extensions 'come and go' without disturbing other traffic."""
        bed = spin_pair
        counts = {"stable": 0, "transient": 0}

        @ephemeral
        def stable(m, off, src_ip, src_port, dst_ip, dst_port):
            pass

        def make_handler(tag):
            @ephemeral
            def handler(m, off, src_ip, src_port, dst_ip, dst_port):
                counts[tag] += 1
            return handler

        manager = bed.stacks[1].udp_manager
        stable_ep = manager.bind(Credential("stable"), 7100,
                                 make_handler("stable"))
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7000, noop)

        kpath(bed, 0, lambda: sender.send(b"1", bed.ip(1), 7100))
        transient = manager.bind(Credential("transient"), 7200,
                                 make_handler("transient"))
        kpath(bed, 0, lambda: sender.send(b"2", bed.ip(1), 7200))
        kpath(bed, 0, lambda: sender.send(b"3", bed.ip(1), 7100))
        transient.close()
        kpath(bed, 0, lambda: sender.send(b"4", bed.ip(1), 7200))  # gone
        kpath(bed, 0, lambda: sender.send(b"5", bed.ip(1), 7100))
        assert counts == {"stable": 3, "transient": 1}
        del stable_ep

    def test_graph_returns_to_baseline_after_removal(self, spin_pair):
        bed = spin_pair
        graph = bed.stacks[0].graph
        baseline = graph.edge_count()
        endpoint = bed.stacks[0].udp_manager.bind(Credential("t"), 7100, noop)
        assert graph.edge_count() == baseline + 1
        endpoint.close()
        assert graph.edge_count() == baseline


class TestExtensionLinking:
    def test_app_domain_exposes_managers_only(self, spin_pair):
        stack = spin_pair.stacks[0]
        domain = stack.app_domain
        assert domain.resolve("UDP.Bind") == stack.udp_manager.bind
        assert domain.resolve("TCP.Listen") == stack.tcp_manager.listen
        for hidden in ("Dispatcher.Install", "IP.ClaimPortRedirect",
                       "Delivery.Mode", "Ethernet.ClaimEthertype"):
            with pytest.raises(UnresolvedSymbol):
                domain.resolve(hidden)

    def test_net_domain_is_wider(self, spin_pair):
        stack = spin_pair.stacks[0]
        domain = stack.net_domain
        assert domain.resolve("UDP.Bind") == stack.udp_manager.bind
        assert domain.resolve("IP.Alias") == stack.ip_manager.alias_capability
        assert domain.resolve("Ethernet.ClaimEthertype") == \
            stack.ethernet_manager.claim_ethertype
        assert domain.resolve("Delivery.Mode") == "inline"

    def test_extension_binds_through_imports(self, spin_pair):
        """The Figure 2 shape: a signed module installing a handler."""
        bed = spin_pair
        received = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            received.append(bytes(m.to_bytes()[off:]))

        app = AppExtension(
            "EchoCounter",
            imports=["UDP.Bind"],
            init=lambda env, cred: [env["UDP.Bind"](cred, 7900, handler)])
        app.install(bed.hosts[1], bed.stacks[1].app_domain)

        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7000, noop)
        kpath(bed, 0, lambda: sender.send(b"to extension", bed.ip(1), 7900))
        assert received == [b"to extension"]

    def test_extension_uninstall_releases_everything(self, spin_pair):
        bed = spin_pair

        app = AppExtension(
            "Transient",
            imports=["UDP.Bind"],
            init=lambda env, cred: [env["UDP.Bind"](cred, 7901, noop)])
        app.install(bed.hosts[0], bed.stacks[0].app_domain)
        with pytest.raises(Exception):
            bed.stacks[0].udp_manager.bind(Credential("x"), 7901, noop)
        app.uninstall()
        bed.stacks[0].udp_manager.bind(Credential("x"), 7901, noop)

    def test_overreaching_extension_rejected_at_link(self, spin_pair):
        """Paper sec. 2: referencing an unexported symbol fails the link."""
        bed = spin_pair
        rogue = compile_extension(
            "Rogue", ["Dispatcher.Install"], lambda env: None)
        with pytest.raises(LinkError, match="unresolved"):
            bed.hosts[0].linker.link(rogue, bed.stacks[0].app_domain)

    def test_double_install_rejected(self, spin_pair):
        app = AppExtension("Once", imports=["UDP.Bind"],
                           init=lambda env, cred: [])
        app.install(spin_pair.hosts[0], spin_pair.stacks[0].app_domain)
        with pytest.raises(RuntimeError):
            app.install(spin_pair.hosts[0], spin_pair.stacks[0].app_domain)


class TestMultipleTcpImplementations:
    def test_special_and_standard_coexist(self, spin_pair):
        """Section 3.1: TCP-standard and TCP-special demux by guard."""
        bed = spin_pair
        server_stack = bed.stacks[1]
        special = server_stack.tcp_manager.install_implementation(
            Credential("special"), "special", ports=[9500]).proto

        standard_conns, special_conns = [], []
        server_stack.tcp_manager.listen(
            Credential("std"), 9400, standard_conns.append)
        special.listen(9500, special_conns.append)

        def connect_both():
            bed.stacks[0].tcp_manager.connect(Credential("c1"), bed.ip(1), 9400)
            bed.stacks[0].tcp_manager.connect(Credential("c2"), bed.ip(1), 9500)
        kpath(bed, 0, connect_both)
        assert len(standard_conns) == 1
        assert len(special_conns) == 1
        # And the connections landed in different implementations.
        assert standard_conns[0].proto is server_stack.tcp
        assert special_conns[0].proto is special

    def test_standard_never_sees_special_ports(self, spin_pair):
        bed = spin_pair
        server_stack = bed.stacks[1]
        server_stack.tcp_manager.install_implementation(
            Credential("special"), "special", ports=[9500])
        before = server_stack.tcp.segments_in

        def connect():
            bed.stacks[0].tcp_manager.connect(Credential("c"), bed.ip(1), 9500)
        kpath(bed, 0, connect)
        # Segments for the special port bypassed the standard entirely.
        assert server_stack.tcp.segments_in == before


class TestEndToEnd:
    def test_udp_ping_pong(self, spin_pair):
        bed = spin_pair
        engine = bed.engine
        reply = Signal(engine)
        server_ep = None

        @ephemeral
        def echo(m, off, src_ip, src_port, dst_ip, dst_port):
            server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)
        server_ep = bed.stacks[1].udp_manager.bind(
            Credential("srv"), 7000, echo)
        got = []
        client_host = bed.hosts[0]

        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            got.append(bytes(m.to_bytes()[off:]))
            client_host.defer(reply.fire)
        client_ep = bed.stacks[0].udp_manager.bind(
            Credential("cli"), 7001, receive)

        def ping():
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(b"marco", bed.ip(1), 7000))
            yield waiter
        engine.run_process(ping())
        assert got == [b"marco"]

    def test_tcp_echo_through_managers(self, spin_pair):
        bed = spin_pair
        engine = bed.engine
        got = Signal(engine)

        def on_accept(tcb):
            tcb.on_data = lambda data, t=tcb: t.send(data.upper())
        bed.stacks[1].tcp_manager.listen(Credential("srv"), 8200, on_accept)
        replies = []
        host = bed.hosts[0]

        def run():
            box = {}

            def connect():
                tcb = bed.stacks[0].tcp_manager.connect(
                    Credential("cli"), bed.ip(1), 8200)
                tcb.on_data = lambda data: (replies.append(data),
                                            host.defer(got.fire))
                tcb.on_established = lambda: tcb.send(b"shout")
                box["tcb"] = tcb
            waiter = got.wait()
            yield from host.kernel_path(connect)
            yield waiter
        engine.run_process(run())
        assert replies == [b"SHOUT"]
