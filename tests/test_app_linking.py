"""The front door (paper sections 2-3): every section 5 application is an
extension linked against a logical protection domain, and unlink removes
all it installed.

* a domain missing any one import an app declares fails the link with
  ``LinkError`` and leaves the dispatcher, the managers' port spaces and
  the linker as they were;
* the net-domain apps cannot link against the app domain;
* what an init installs is removed by unlink -- listeners and TCP
  implementations included -- and an init that returns something unlink
  could not remove is refused at link time.
"""

import pytest

from repro.apps import (
    ActiveMessages,
    BackendService,
    PlexusForwarder,
    SpinHttpClient,
    SpinHttpServer,
    SpinVideoClient,
    SpinVideoServer,
)
from repro.bench.testbed import build_testbed
from repro.core import AccessError, AppExtension, Credential
from repro.spin import Interface, LinkError


def _args(bed):
    """Each app, the domain it links against, and its arguments."""
    return {
        PlexusForwarder: ("net", (8080,), {"backends": [bed.ip(0)]}),
        BackendService: ("net", (bed.ip(0), 8080), {}),
        ActiveMessages: ("net", (), {}),
        SpinHttpServer: ("app", ({"/": b"x"},), {"port": 8088}),
        SpinHttpClient: ("app", (bed.ip(0),), {"port": 8088}),
        SpinVideoServer: ("app", (), {}),
        SpinVideoClient: ("app", (), {}),
    }


_APPS = [PlexusForwarder, BackendService, ActiveMessages, SpinHttpServer,
         SpinHttpClient, SpinVideoServer, SpinVideoClient]


def _domain(stack, which):
    return stack.net_domain if which == "net" else stack.app_domain


def _without(domain, qualified):
    """A copy of ``domain`` that does not export ``qualified``."""
    interface_name, _, symbol = qualified.partition(".")
    clone = domain.copy()
    symbols = dict(clone._interfaces[interface_name].symbols)
    del symbols[symbol]
    clone._interfaces[interface_name] = Interface(interface_name, symbols)
    return clone


def _kernel_state(bed, stack):
    """The dispatcher's handler lists, every port space, the linker."""
    host = bed.hosts[1]
    spaces = [stack.udp_manager.ports, stack.tcp_manager.ports,
              stack.ip_manager.protocols, stack.ethernet_manager.types]
    return ({name: list(event.handlers)
             for name, event in host.dispatcher.events.items()},
            [dict(space._owners) for space in spaces],
            set(stack.udp_manager.diverted_ports),
            set(stack.tcp_manager.diverted_ports),
            dict(stack.tcp.listeners), set(stack.ip._aliases),
            list(host.linker.linked))


@pytest.mark.parametrize("app, missing", [
    (app, name) for app in _APPS for name in app.IMPORTS])
def test_a_missing_import_fails_the_link_and_changes_nothing(app, missing):
    """Linking an app against a domain without one of its imports fails
    with ``LinkError`` naming it, before its init runs."""
    bed = build_testbed("spin", "ethernet")
    stack = bed.stacks[1]
    which, args, kwargs = _args(bed)[app]
    domain = _without(_domain(stack, which), missing)
    before = _kernel_state(bed, stack)
    with pytest.raises(LinkError, match="unresolved symbols: %s$" % missing):
        AppExtension.link(app, bed.hosts[1], domain, *args,
                          privileged=True, **kwargs)
    assert _kernel_state(bed, stack) == before


@pytest.mark.parametrize("app", _APPS)
def test_each_app_links_and_unlinks(app):
    """With every import exported, each app links, and unlink leaves the
    kernel as it found it."""
    bed = build_testbed("spin", "ethernet")
    stack = bed.stacks[1]
    which, args, kwargs = _args(bed)[app]
    before = _kernel_state(bed, stack)
    linked = AppExtension.link(app, bed.hosts[1], _domain(stack, which),
                               *args, privileged=True, **kwargs)
    assert isinstance(linked.state, app)
    assert bed.hosts[1].linker.linked == [linked.linked]
    linked.uninstall()
    assert _kernel_state(bed, stack) == before


@pytest.mark.parametrize("app", [PlexusForwarder, BackendService,
                                 ActiveMessages])
def test_net_apps_do_not_link_against_the_app_domain(app):
    bed = build_testbed("spin", "ethernet")
    stack = bed.stacks[1]
    _which, args, kwargs = _args(bed)[app]
    before = _kernel_state(bed, stack)
    with pytest.raises(LinkError, match="unresolved"):
        AppExtension.link(app, bed.hosts[1], stack.app_domain, *args,
                          privileged=True, **kwargs)
    assert _kernel_state(bed, stack) == before


class TestUnlinkLeavesNothingBehind:
    def test_listener(self, spin_pair):
        """A listener an init returns is closed, and its port released."""
        host, stack = spin_pair.hosts[1], spin_pair.stacks[1]
        app = AppExtension("Listener", ["TCP.Listen"],
                           lambda env, cred: env["TCP.Listen"](
                               cred, 8088, lambda tcb: None))
        app.install(host, stack.app_domain)
        assert 8088 in stack.tcp.listeners
        app.uninstall()
        assert 8088 not in stack.tcp.listeners
        assert stack.tcp_manager.ports.owner(8088) is None
        stack.tcp_manager.listen(Credential("next"), 8088, lambda tcb: None)

    def test_tcp_implementation(self, spin_pair):
        """A TCP implementation an init returns is uninstalled: its edge,
        ports, diversion and name are released."""
        host, stack = spin_pair.hosts[1], spin_pair.stacks[1]
        before = stack.graph.render()
        app = AppExtension("Special", ["TCP.InstallImplementation"],
                           lambda env, cred: env["TCP.InstallImplementation"](
                               cred, "special", ports=[9500]))
        app.install(host, stack.app_domain)
        assert list(stack.tcp_manager.implementations) == ["special"]
        app.uninstall()
        assert stack.tcp_manager.implementations == {}
        assert stack.tcp_manager.diverted_ports == set()
        assert stack.tcp_manager.ports.owner(9500) is None
        assert stack.graph.render() == before

    def test_unremovable_state_is_refused_at_link(self, spin_pair):
        """An init that returns an object without ``uninstall()`` fails
        the link; what it returned that can be removed is removed."""
        host, stack = spin_pair.hosts[1], spin_pair.stacks[1]
        app = AppExtension("Leaky", ["TCP.Listen"],
                           lambda env, cred: [
                               env["TCP.Listen"](cred, 8088, lambda tcb: None),
                               "something unlink cannot remove"])
        with pytest.raises(LinkError, match="no uninstall"):
            app.install(host, stack.app_domain)
        assert host.linker.linked == []
        assert 8088 not in stack.tcp.listeners
        assert stack.tcp_manager.ports.owner(8088) is None

    def test_backend_stops_hosting_its_virtual_address(self):
        bed = build_testbed("spin", "ethernet", n_hosts=3)
        backend = AppExtension.link(BackendService, bed.hosts[2],
                                    bed.stacks[2].net_domain, bed.ip(1), 8080,
                                    privileged=True)
        assert bed.ip(1) in bed.stacks[2].ip._aliases
        backend.uninstall()
        assert bed.ip(1) not in bed.stacks[2].ip._aliases

    def test_http_client_closes_its_connection(self, spin_pair):
        bed = spin_pair
        AppExtension.link(SpinHttpServer, bed.hosts[1],
                          bed.stacks[1].app_domain, {"/": b"page"}, port=8088)
        client = AppExtension.link(SpinHttpClient, bed.hosts[0],
                                   bed.stacks[0].app_domain, bed.ip(1),
                                   port=8088)
        assert bed.engine.run_process(client.state.fetch("/")) == (200, b"page")
        tcb = client.state._conn.tcb
        client.uninstall()
        bed.engine.run()
        assert tcb.fin_queued
        assert client.state._conn is None

    def test_a_closed_connection_leaves_no_port_claim(self, spin_pair):
        """The client's ephemeral port is its credential's while the
        connection lives, and free again once it has closed: a later
        connect under another credential that draws it is not refused."""
        bed = spin_pair
        manager = bed.stacks[0].tcp_manager
        AppExtension.link(SpinHttpServer, bed.hosts[1],
                          bed.stacks[1].app_domain, {"/": b"page"}, port=8088)
        client = AppExtension.link(SpinHttpClient, bed.hosts[0],
                                   bed.stacks[0].app_domain, bed.ip(1),
                                   port=8088)
        bed.engine.run_process(client.state.fetch("/"))
        lport = client.state._conn.tcb.lport
        assert manager.ports.owner(lport) is client.state.credential
        client.uninstall()
        bed.engine.run()
        assert manager.ports._owners == {}
        manager.standard._next_ephemeral = lport
        tcbs = []
        bed.engine.run_process(bed.hosts[0].kernel_path(lambda: tcbs.append(
            manager.connect(Credential("later"), bed.ip(1), 8088))))
        assert tcbs[0].lport == lport


def test_privilege_is_the_linkers_to_grant(spin_pair):
    """The forwarder's redirect capability needs a privileged credential:
    linked without one, its init is refused by the IP manager."""
    bed = spin_pair
    with pytest.raises(AccessError, match="not privileged"):
        AppExtension.link(PlexusForwarder, bed.hosts[1],
                          bed.stacks[1].net_domain, 8080,
                          backends=[bed.ip(0)])
    assert bed.hosts[1].linker.linked == []
