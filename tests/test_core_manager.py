"""Tests for the protocol managers: the paper's protection policy.

Every test here corresponds to a claim in sections 3.1-3.3: spoofing is
prevented by source overwrite (or verify), snooping by manager-built
guards and port ownership, interrupt-level handlers must be EPHEMERAL,
and privileged operations demand a privileged credential.
"""

import pytest

from repro.core import AccessError, Credential, PortSpace, SpoofingError
from repro.lang import ephemeral
from repro.net.headers import IPPROTO_TCP, ip_aton
from repro.spin import DispatchError


@ephemeral
def noop_handler(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


def kpath(bed, index, fn):
    bed.engine.run_process(bed.hosts[index].kernel_path(fn))
    bed.engine.run()


class TestPortSpace:
    def test_claim_and_release(self):
        space = PortSpace("port")
        alice = Credential("alice")
        space.claim(80, alice)
        assert space.owner(80) is alice
        space.release(80, alice)
        assert space.owner(80) is None

    def test_foreign_claim_rejected(self):
        space = PortSpace("port")
        alice, bob = Credential("alice"), Credential("bob")
        space.claim(80, alice)
        with pytest.raises(AccessError, match="owned by alice"):
            space.claim(80, bob)

    def test_reserved_needs_privilege(self):
        space = PortSpace("port", reserved=[25])
        with pytest.raises(AccessError, match="reserved"):
            space.claim(25, Credential("user"))
        space.claim(25, Credential("root", privileged=True))

    def test_reclaim_by_owner_ok(self):
        space = PortSpace("port")
        alice = Credential("alice")
        space.claim(80, alice)
        space.claim(80, alice)  # idempotent for the owner

    def test_foreign_release_rejected(self):
        space = PortSpace("port")
        alice, bob = Credential("alice"), Credential("bob")
        space.claim(80, alice)
        with pytest.raises(AccessError):
            space.release(80, bob)

    def test_privileged_release_allowed(self):
        space = PortSpace("port")
        space.claim(80, Credential("alice"))
        space.release(80, Credential("root", privileged=True))


class TestUdpManagerPolicy:
    def test_bind_and_receive_only_own_port(self, spin_pair):
        """Anti-snooping: a handler never sees another port's traffic."""
        bed = spin_pair
        seen = {"mine": [], "other": []}

        @ephemeral
        def mine(m, off, src_ip, src_port, dst_ip, dst_port):
            seen["mine"].append(dst_port)

        @ephemeral
        def other(m, off, src_ip, src_port, dst_ip, dst_port):
            seen["other"].append(dst_port)
        manager = bed.stacks[1].udp_manager
        manager.bind(Credential("a"), 7100, mine)
        manager.bind(Credential("b"), 7200, other)
        sender = bed.stacks[0].udp_manager.bind(
            Credential("c"), 7300, noop_handler)
        kpath(bed, 0, lambda: sender.send(b"x", bed.ip(1), 7100))
        assert seen["mine"] == [7100]
        assert seen["other"] == []

    def test_port_ownership_enforced(self, spin_pair):
        manager = spin_pair.stacks[0].udp_manager
        manager.bind(Credential("a"), 7100, noop_handler)
        with pytest.raises(AccessError):
            manager.bind(Credential("b"), 7100, noop_handler)

    def test_close_releases_port(self, spin_pair):
        manager = spin_pair.stacks[0].udp_manager
        endpoint = manager.bind(Credential("a"), 7100, noop_handler)
        endpoint.close()
        manager.bind(Credential("b"), 7100, noop_handler)  # now free

    def test_send_overwrites_source(self, spin_pair):
        """Anti-spoofing: the manager stamps the owned source fields."""
        bed = spin_pair
        seen = []

        @ephemeral
        def catcher(m, off, src_ip, src_port, dst_ip, dst_port):
            seen.append((src_ip, src_port))
        bed.stacks[1].udp_manager.bind(Credential("srv"), 7500, catcher)
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("cli"), 7400, noop_handler)
        kpath(bed, 0, lambda: endpoint.send(b"x", bed.ip(1), 7500))
        # The wire carries the endpoint's identity, whatever the caller
        # might have wished.
        assert seen == [(bed.ip(0), 7400)]

    def test_verify_policy_raises_on_spoof(self, spin_pair):
        bed = spin_pair
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("cli"), 7400, noop_handler, spoof_policy="verify")

        def attempt():
            endpoint.send(b"x", bed.ip(1), 7500, claimed_src_port=9999)
        with pytest.raises(SpoofingError):
            kpath(bed, 0, attempt)

    def test_closed_endpoint_cannot_send(self, spin_pair):
        bed = spin_pair
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("cli"), 7400, noop_handler)
        endpoint.close()
        with pytest.raises(AccessError):
            kpath(bed, 0, lambda: endpoint.send(b"x", bed.ip(1), 7500))

    def test_inline_handler_must_be_ephemeral(self, spin_pair):
        def plain_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            pass
        manager = spin_pair.stacks[0].udp_manager
        with pytest.raises(AccessError, match="EPHEMERAL"):
            manager.bind(Credential("a"), 7100, plain_handler, mode="inline")

    def test_thread_handler_need_not_be_ephemeral(self, spin_pair):
        def plain_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            pass
        manager = spin_pair.stacks[0].udp_manager
        manager.bind(Credential("a"), 7100, plain_handler, mode="thread")

    @pytest.mark.parametrize("limit", [float("nan"), float("inf")])
    def test_non_finite_time_limit_rejected(self, spin_pair, limit):
        """The managers make the dispatcher's delivery checks before they
        claim: a refused bind leaves the port free."""
        manager = spin_pair.stacks[0].udp_manager
        with pytest.raises(DispatchError, match="finite"):
            manager.bind(Credential("a"), 7100, noop_handler,
                         time_limit=limit)
        manager.bind(Credential("b"), 7100, noop_handler, time_limit=30.0)

    def test_reserved_low_ports(self, spin_pair):
        manager = spin_pair.stacks[0].udp_manager
        with pytest.raises(AccessError, match="reserved"):
            manager.bind(Credential("user"), 53, noop_handler)
        manager.bind(Credential("root", privileged=True), 53, noop_handler)


class TestEthernetManagerPolicy:
    def test_reserved_ethertypes(self, spin_pair):
        manager = spin_pair.stacks[0].ethernet_manager

        @ephemeral
        def handler(nic, m):
            pass
        with pytest.raises(AccessError, match="reserved"):
            manager.claim_ethertype(Credential("user"), 0x0800, handler)

    def test_claim_custom_ethertype(self, spin_pair):
        manager = spin_pair.stacks[0].ethernet_manager

        @ephemeral
        def handler(nic, m):
            pass
        install = manager.claim_ethertype(Credential("am"), 0x88B5, handler)
        assert install.installed
        install.uninstall()
        # Released: another principal may claim it now.
        manager.claim_ethertype(Credential("other"), 0x88B5, handler)

    def test_send_capability_requires_ownership(self, spin_pair):
        manager = spin_pair.stacks[0].ethernet_manager
        with pytest.raises(AccessError, match="does not own"):
            manager.send_capability(Credential("nobody"), 0x88B5)


class TestIpManagerPolicy:
    def test_claim_ip_protocol(self, spin_pair):
        bed = spin_pair
        seen = []

        @ephemeral
        def handler(proto, m, off, src, dst):
            seen.append(proto)
        bed.stacks[1].ip_manager.claim_protocol(
            Credential("custom"), 99, handler)
        send = bed.stacks[0].ip_manager.send_capability(Credential("cli"))

        def work():
            m = bed.hosts[0].mbufs.from_bytes(b"custom proto", leading_space=64)
            send(m, bed.ip(1), 99)
        kpath(bed, 0, work)
        assert seen == [99]

    def test_reserved_protocols(self, spin_pair):
        manager = spin_pair.stacks[0].ip_manager

        @ephemeral
        def handler(proto, m, off, src, dst):
            pass
        with pytest.raises(AccessError):
            manager.claim_protocol(Credential("user"), IPPROTO_TCP, handler)

    def test_preserve_source_needs_privilege(self, spin_pair):
        manager = spin_pair.stacks[0].ip_manager
        with pytest.raises(AccessError, match="spoofing"):
            manager.send_capability(Credential("user"), preserve_source=True)
        manager.send_capability(Credential("root", privileged=True),
                                preserve_source=True)

    def test_unprivileged_ip_send_stamps_own_source(self, spin_pair):
        bed = spin_pair
        seen = []

        @ephemeral
        def handler(proto, m, off, src, dst):
            seen.append(src)
        bed.stacks[1].ip_manager.claim_protocol(Credential("x"), 100, handler)
        send = bed.stacks[0].ip_manager.send_capability(Credential("cli"))

        def work():
            m = bed.hosts[0].mbufs.from_bytes(b"x", leading_space=64)
            send(m, bed.ip(1), 100, src=ip_aton("99.99.99.99"))  # ignored
        kpath(bed, 0, work)
        assert seen == [bed.ip(0)]

    def test_redirect_capability_needs_privilege(self, spin_pair):
        manager = spin_pair.stacks[0].ip_manager
        with pytest.raises(AccessError):
            manager.link_redirect_capability(Credential("user"))

    def test_alias_capability_needs_privilege(self, spin_pair):
        manager = spin_pair.stacks[0].ip_manager
        with pytest.raises(AccessError):
            manager.alias_capability(Credential("user"))

    def test_port_redirect_claims_transport_port(self, spin_pair):
        bed = spin_pair
        manager = bed.stacks[0].ip_manager

        @ephemeral
        def handler(proto, m, off, src, dst):
            pass
        manager.claim_port_redirect(Credential("fwd"), IPPROTO_TCP, 8080,
                                    handler)
        # The TCP manager now refuses that port.
        with pytest.raises(AccessError):
            bed.stacks[0].tcp_manager.listen(Credential("web"), 8080,
                                             lambda tcb: None)

    def test_redirect_uninstall_restores_port(self, spin_pair):
        bed = spin_pair
        manager = bed.stacks[0].ip_manager

        @ephemeral
        def handler(proto, m, off, src, dst):
            pass
        install = manager.claim_port_redirect(
            Credential("fwd"), IPPROTO_TCP, 8080, handler)
        install.uninstall()
        bed.stacks[0].tcp_manager.listen(Credential("web"), 8080,
                                         lambda tcb: None)


class TestTcpManagerPolicy:
    def test_listen_claims_port(self, spin_pair):
        manager = spin_pair.stacks[0].tcp_manager
        manager.listen(Credential("a"), 8000, lambda tcb: None)
        with pytest.raises(AccessError):
            manager.listen(Credential("b"), 8000, lambda tcb: None)

    def test_listener_close_releases(self, spin_pair):
        manager = spin_pair.stacks[0].tcp_manager
        handle = manager.listen(Credential("a"), 8000, lambda tcb: None)
        handle.uninstall()
        manager.listen(Credential("b"), 8000, lambda tcb: None)

    def test_special_implementation_claims_ports(self, spin_pair):
        bed = spin_pair
        manager = bed.stacks[0].tcp_manager
        special = manager.install_implementation(
            Credential("special"), "tcp-special", ports=[9100, 9101])
        assert special.proto is not manager.standard
        assert manager.diverted_ports == {9100, 9101}
        with pytest.raises(AccessError):
            manager.listen(Credential("x"), 9100, lambda tcb: None)

    def test_uninstalled_implementation_frees_ports_and_name(self,
                                                             spin_pair):
        """Uninstalling an implementation's edge takes ``tcp:<name>`` off
        the graph and releases its ports, their diversion and its name."""
        stack = spin_pair.stacks[0]
        manager = stack.tcp_manager
        manager.install_implementation(Credential("a"), "special",
                                       [9100, 9101])
        assert "tcp:special" in stack.graph.render()
        manager.implementations["special"].uninstall()
        assert "tcp:special" not in stack.graph.render()
        assert manager.implementations == {}
        assert manager.diverted_ports == set()
        assert manager.ports.owner(9100) is None
        manager.listen(Credential("b"), 9100, lambda tcb: None)
        manager.install_implementation(Credential("c"), "special", [9101])
        assert manager.diverted_ports == {9101}

    def test_implementation_name_taken_claims_nothing(self, spin_pair):
        """A second implementation under a taken name is refused before
        any port is claimed."""
        manager = spin_pair.stacks[0].tcp_manager
        manager.install_implementation(Credential("a"), "special", [9100])
        with pytest.raises(AccessError, match="already installed"):
            manager.install_implementation(Credential("b"), "special", [9200])
        assert manager.ports.owner(9200) is None
        assert manager.diverted_ports == {9100}
