"""Tests for the section 5 applications: video, forwarder, active
messages, HTTP.  Every Plexus-side app is linked through
``AppExtension.link`` against its host's domain."""

import pytest

from repro.apps import (
    ActiveMessages,
    BackendService,
    PlexusForwarder,
    SpinHttpClient,
    SpinHttpServer,
    SpinVideoClient,
    SpinVideoServer,
    UnixHttpServer,
    UnixVideoServer,
    unix_http_get,
)
from repro.apps.video import VIDEO_PORT_BASE
from repro.bench.testbed import build_testbed
from repro.core import AppExtension, Credential
from repro.spin import LinkError
from repro.lang import ephemeral
from repro.sim import Signal


def _am(bed, index, **kwargs):
    """Active messages linked on host ``index`` (its net domain)."""
    return AppExtension.link(ActiveMessages, bed.hosts[index],
                             bed.stacks[index].net_domain, **kwargs).state


def _app(app, bed, index, *args, **kwargs):
    """An app-domain application linked on host ``index``."""
    return AppExtension.link(app, bed.hosts[index],
                             bed.stacks[index].app_domain, *args,
                             **kwargs).state


def _net(app, bed, index, *args, **kwargs):
    """A privileged net-domain application linked on host ``index``."""
    return AppExtension.link(app, bed.hosts[index],
                             bed.stacks[index].net_domain, *args,
                             privileged=True, **kwargs).state


class TestActiveMessages:
    def test_remote_handler_invoked(self, spin_pair):
        bed = spin_pair
        am_a = _am(bed, 0, name="am-a")
        am_b = _am(bed, 1, name="am-b")
        seen = []

        @ephemeral
        def handler(seq, arg, index):
            seen.append((seq, arg, index))
        am_b.register(3, handler)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: am_a.send(bed.nics[1].address, 3, arg=0xABCD)))
        bed.engine.run()
        assert seen == [(1, 0xABCD, 3)]
        assert am_b.messages_received == 1

    def test_unregistered_index_ignored(self, spin_pair):
        bed = spin_pair
        am_a = _am(bed, 0, name="am-a")
        am_b = _am(bed, 1, name="am-b")
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: am_a.send(bed.nics[1].address, 42)))
        bed.engine.run()
        assert am_b.messages_received == 1  # frame arrived, no target

    def test_non_ephemeral_handler_rejected(self, spin_pair):
        am = _am(spin_pair, 0)

        def sloppy(seq, arg, index):
            pass
        with pytest.raises(ValueError, match="ephemeral"):
            am.register(1, sloppy)

    def test_requires_ethernet(self):
        bed = build_testbed("spin", "t3")
        with pytest.raises(LinkError, match="Ethernet.ClaimEthertype"):
            _am(bed, 0)

    def test_remove_releases_ethertype(self, spin_pair):
        am = AppExtension.link(ActiveMessages, spin_pair.hosts[0],
                               spin_pair.stacks[0].net_domain, name="first")
        am.uninstall()
        _am(spin_pair, 0, name="second")  # same ethertype

    @pytest.mark.parametrize("deliver_mode, limit", [
        ("interrupt", ActiveMessages.TIME_LIMIT_US), ("thread", None)])
    def test_time_limit_only_at_interrupt_level(self, deliver_mode, limit):
        bed = build_testbed("spin", "ethernet", deliver_mode=deliver_mode)
        am_a = _am(bed, 0, name="am-a")
        am_b = _am(bed, 1, name="am-b")
        assert am_b.handle.time_limit == limit
        seen = []
        am_b.register(3, ephemeral(lambda seq, arg, index: seen.append(arg)))
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: am_a.send(bed.nics[1].address, 3, arg=7)))
        bed.engine.run()
        assert seen == [7]


class TestVideo:
    def test_spin_server_streams_frames(self):
        bed = build_testbed("spin", "t3")
        client = _app(SpinVideoClient, bed, 1, frame_bytes=12_500)
        server = _app(SpinVideoServer, bed, 0, frame_bytes=12_500)
        server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames=6)
        bed.engine.run(until=400_000.0)
        assert server.stats.frames_sent == 6
        assert client.frames_displayed >= 5
        assert server.stats.deadline_misses == 0

    def test_unix_server_streams_frames(self):
        bed = build_testbed("unix", "t3")
        from repro.apps import UnixVideoClient
        client = UnixVideoClient(bed.sockets[1], frame_bytes=12_500)
        server = UnixVideoServer(bed.sockets[0], frame_bytes=12_500)
        server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames=6)
        bed.engine.run(until=400_000.0)
        assert server.stats.frames_sent == 6
        assert client.frames_displayed >= 5

    def test_video_uses_checksum_free_udp(self):
        """The application-specific video protocol skips checksums."""
        bed = build_testbed("spin", "t3")
        _app(SpinVideoClient, bed, 1)
        server = _app(SpinVideoServer, bed, 0)
        server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames=2)
        bed.engine.run(until=150_000.0)
        assert bed.stacks[0].udp.checksums_skipped > 0

    def test_spin_server_cheaper_than_unix(self):
        spin_bed = build_testbed("spin", "t3")
        _app(SpinVideoClient, spin_bed, 1)
        spin_server = _app(SpinVideoServer, spin_bed, 0)
        spin_server.add_stream(spin_bed.ip(1), VIDEO_PORT_BASE, frames=6)
        spin_bed.engine.run(until=300_000.0)

        unix_bed = build_testbed("unix", "t3")
        from repro.apps import UnixVideoClient
        UnixVideoClient(unix_bed.sockets[1])
        unix_server = UnixVideoServer(unix_bed.sockets[0])
        unix_server.add_stream(unix_bed.ip(1), VIDEO_PORT_BASE, frames=6)
        unix_bed.engine.run(until=300_000.0)

        assert (spin_bed.hosts[0].cpu.busy_time <
                unix_bed.hosts[0].cpu.busy_time / 1.5)


class TestForwarder:
    def _build(self):
        bed = build_testbed("spin", "ethernet", n_hosts=3)
        forwarder = _net(PlexusForwarder, bed, 1, 8080, backends=[bed.ip(2)])
        backend = _net(BackendService, bed, 2, virtual_ip=bed.ip(1),
                       port=8080, echo=True)
        return bed, forwarder, backend

    def test_connection_redirected_end_to_end(self):
        bed, forwarder, backend = self._build()
        engine = bed.engine
        replies = []
        got = Signal(engine)
        host = bed.hosts[0]

        def run():
            box = {}

            def connect():
                tcb = bed.stacks[0].tcp_manager.connect(
                    Credential("cli"), bed.ip(1), 8080)
                tcb.on_data = lambda data: (replies.append(data),
                                            host.defer(got.fire))
                tcb.on_established = lambda: tcb.send(b"through the kernel")
            waiter = got.wait()
            yield from host.kernel_path(connect)
            yield waiter
        engine.run_process(run())
        assert replies == [b"through the kernel"]
        # End-to-end: the backend terminates the connection.
        assert backend.connections
        assert forwarder.packets_forwarded > 0
        # The forwarder's own TCP never saw the connection.
        assert not bed.stacks[1].tcp.connections

    def test_round_robin_across_backends(self):
        bed = build_testbed("spin", "ethernet", n_hosts=4)
        forwarder = _net(PlexusForwarder, bed, 1, 8080,
                         backends=[bed.ip(2), bed.ip(3)])
        b1 = _net(BackendService, bed, 2, bed.ip(1), 8080, echo=True)
        b2 = _net(BackendService, bed, 3, bed.ip(1), 8080, echo=True)
        engine = bed.engine
        host = bed.hosts[0]

        def connect_two():
            bed.stacks[0].tcp_manager.connect(Credential("c1"), bed.ip(1), 8080)
            bed.stacks[0].tcp_manager.connect(Credential("c2"), bed.ip(1), 8080)
        engine.run_process(host.kernel_path(connect_two))
        engine.run(until=engine.now + 100_000.0)
        assert len(b1.connections) == 1
        assert len(b2.connections) == 1
        assert forwarder.flow_count() == 2

    def test_forwarder_removal_restores_local_delivery(self):
        bed = build_testbed("spin", "ethernet", n_hosts=3)
        forwarder = AppExtension.link(
            PlexusForwarder, bed.hosts[1], bed.stacks[1].net_domain, 8080,
            backends=[bed.ip(2)], privileged=True)
        forwarder.uninstall()
        # The port is free again on the forwarding host.
        bed.stacks[1].tcp_manager.listen(Credential("local"), 8080,
                                         lambda tcb: None)

    def test_requires_backends(self, spin_pair):
        with pytest.raises(ValueError):
            _net(PlexusForwarder, spin_pair, 0, 8080, backends=[])

    @pytest.mark.parametrize("deliver_mode, limit", [
        ("interrupt", 200.0), ("thread", None)])
    def test_time_limit_only_at_interrupt_level(self, deliver_mode, limit):
        bed = build_testbed("spin", "ethernet", n_hosts=3,
                            deliver_mode=deliver_mode)
        forwarder = _net(PlexusForwarder, bed, 1, 8080, backends=[bed.ip(2)])
        assert forwarder.handle.time_limit == limit
        assert forwarder.handle.mode == bed.stacks[1].deliver_mode


class TestHttp:
    PAGES = {"/": b"<html>SPIN</html>", "/paper": b"Plexus " * 500}

    def test_spin_http_end_to_end(self, spin_pair):
        bed = spin_pair
        _app(SpinHttpServer, bed, 1, self.PAGES, port=8088)
        client = _app(SpinHttpClient, bed, 0, bed.ip(1), port=8088)
        status, body = bed.engine.run_process(client.fetch("/"))
        assert (status, body) == (200, b"<html>SPIN</html>")

    def test_spin_http_large_page(self, spin_pair):
        bed = spin_pair
        _app(SpinHttpServer, bed, 1, self.PAGES, port=8088)
        client = _app(SpinHttpClient, bed, 0, bed.ip(1), port=8088)
        status, body = bed.engine.run_process(client.fetch("/paper"))
        assert status == 200
        assert body == self.PAGES["/paper"]

    def test_spin_http_404(self, spin_pair):
        bed = spin_pair
        _app(SpinHttpServer, bed, 1, self.PAGES, port=8088)
        client = _app(SpinHttpClient, bed, 0, bed.ip(1), port=8088)
        status, _body = bed.engine.run_process(client.fetch("/nope"))
        assert status == 404

    def test_unix_http_end_to_end(self, unix_pair):
        bed = unix_pair
        UnixHttpServer(bed.sockets[1], self.PAGES, port=8088)
        status, body = bed.engine.run_process(
            unix_http_get(bed.sockets[0], bed.ip(1), "/", port=8088))
        assert (status, body) == (200, b"<html>SPIN</html>")
