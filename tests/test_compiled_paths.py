"""Compiled delivery paths: generated scans, graph truth, bench knobs.

* the ``ProtocolGraph`` is a view of dispatch: after every removal path
  its edges and ``render()`` are exactly the dispatcher's node-tagged
  live handles;
* the reference scan (the ``scan`` twin, ``twins.py``) gives simulated
  time bit-identical to the generated scans;
* the compile count appears in every run record's metrics snapshot;
* the tracer decodes TCP options (MSS, window scale).
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
from repro.bench.workloads import WORKLOADS, run_once
from repro.core import AppExtension, Credential, ProtocolGraph
from repro.lang import ephemeral
from repro.net.trace import PacketTracer, _decode_tcp_options
from repro.sim import Engine
from repro.spin import DispatchError, SpinKernel
from twins import reference_scan, scan


@ephemeral
def _sink(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


@ephemeral
def _ip_sink(proto, m, off, src, dst):
    pass


# ---------------------------------------------------------------------------
# graph bookkeeping stays truthful
# ---------------------------------------------------------------------------

def _view_matches_dispatch(stack):
    """``edge_count()`` and ``render()`` are exactly the dispatcher's live
    node-tagged handles: their edges, and their undeclared target nodes
    as extension nodes."""
    graph = stack.graph
    handles = [handle for event in stack.host.dispatcher.events.values()
               for handle in event.handlers if handle.node is not None]
    lines = graph.render().splitlines()
    assert graph.edge_count() == len(handles)
    assert sorted(line.strip() for line in lines if "-->" in line) == sorted(
        "--(%s?)--> %s" % (getattr(handle.guard, "__name__", "always"),
                           handle.node) for handle in handles)
    assert sorted(line.split()[-1] for line in lines
                  if "[extension]" in line) == sorted(
        {handle.node for handle in handles} - set(graph.declared))


def _claims(stack):
    """Every port space's owners, the diversions and the TCP listeners."""
    spaces = [stack.udp_manager.ports, stack.tcp_manager.ports,
              stack.ip_manager.protocols, stack.ethernet_manager.types]
    return ([dict(space._owners) for space in spaces],
            set(stack.udp_manager.diverted_ports),
            set(stack.tcp_manager.diverted_ports),
            sorted(stack.tcp.listeners), sorted(stack.ip._aliases))


def _bind_then_close(bed, stack):
    return stack.udp_manager.bind(Credential("a"), 7000, _sink).close


def _bind_then_uninstall(bed, stack):
    return stack.udp_manager.bind(Credential("a"), 7000, _sink).handle.uninstall


def _forwarder(bed, stack):
    return AppExtension.link(PlexusForwarder, bed.hosts[1], stack.net_domain,
                             8080, backends=[bed.ip(0)],
                             privileged=True).uninstall


def _backend(bed, stack):
    return AppExtension.link(BackendService, bed.hosts[1], stack.net_domain,
                             bed.ip(0), 8080, privileged=True).uninstall


def _active_messages(bed, stack):
    return AppExtension.link(ActiveMessages, bed.hosts[1],
                             stack.net_domain).uninstall


def _http_server(bed, stack):
    return AppExtension.link(SpinHttpServer, bed.hosts[1], stack.app_domain,
                             {"/": b"x"}, port=8088).uninstall


def _http_client(bed, stack):
    return AppExtension.link(SpinHttpClient, bed.hosts[1], stack.app_domain,
                             bed.ip(0), port=8088).uninstall


def _video_server(bed, stack):
    return AppExtension.link(SpinVideoServer, bed.hosts[1],
                             stack.app_domain).uninstall


def _video_client(bed, stack):
    return AppExtension.link(SpinVideoClient, bed.hosts[1],
                             stack.app_domain).uninstall


def _linked_extension(bed, stack):
    app = AppExtension(
        "Proto99", imports=["IP.ClaimProtocol"],
        init=lambda env, cred: [env["IP.ClaimProtocol"](cred, 99, _ip_sink)])
    app.install(bed.hosts[1], stack.net_domain)
    return app.uninstall


#: each of the seven section 5 apps, linked and then unlinked
_APPS = [_forwarder, _backend, _active_messages, _http_server, _http_client,
         _video_server, _video_client]


class TestGraphStaysAuthoritative:
    def test_direct_uninstall_drops_edge(self, kernel):
        graph = ProtocolGraph(kernel)
        graph.add_node("ethernet", "protocol")
        graph.add_node("ip", "protocol")
        event = kernel.dispatcher.declare("Ethernet.PacketRecv")
        handle = graph.install(event, lambda *a: None, "ethernet", "ip",
                               label="ip-in")
        assert graph.edge_count() == 1
        assert "--> ip" in graph.render()

        # The edge is the handle: uninstalling it leaves nothing behind.
        handle.uninstall()
        assert graph.edge_count() == 0
        assert "--> ip" not in graph.render()
        # A second uninstall stays a dispatcher error.
        with pytest.raises(DispatchError):
            handle.uninstall()

    @pytest.mark.parametrize("install", [
        _bind_then_close, _bind_then_uninstall, _linked_extension] + _APPS)
    def test_every_removal_path(self, install):
        """Each way an edge leaves -- an endpoint's close, a direct handle
        uninstall, the linker's unlink of an extension or of any of the
        seven apps -- leaves the graph equal to what the dispatcher runs,
        and the graph, the port spaces and the linker as they were before
        (the HTTP and backend apps install a listener, no edge; the HTTP
        client installs nothing until it fetches)."""
        bed = build_testbed("spin", "ethernet")
        stack = bed.stacks[1]
        before = stack.graph.render(), _claims(stack)
        linked = list(bed.hosts[1].linker.linked)
        remove = install(bed, stack)
        _view_matches_dispatch(stack)
        if install not in (_backend, _http_server, _http_client):
            assert stack.graph.render() != before[0]
        remove()
        _view_matches_dispatch(stack)
        assert (stack.graph.render(), _claims(stack)) == before
        assert bed.hosts[1].linker.linked == linked

    def test_install_bumps_generation(self, kernel):
        """Install and uninstall each replace the event's snapshot tuple
        and drop its generated scan."""
        event = kernel.dispatcher.declare("X.Evt")
        before = event._snapshot
        event._scan = lambda args: 0
        handle = kernel.dispatcher.install(event, lambda *a: None)
        assert event._snapshot is not before and event._scan is None
        during = event._snapshot
        event._scan = lambda args: 0
        handle.uninstall()
        assert event._snapshot is not during and event._scan is None
        assert event._snapshot == before


# ---------------------------------------------------------------------------
# generated scans: observability and the reference twin
# ---------------------------------------------------------------------------

_SCANS = "spin.dispatcher.compiled_scans"


def _udp_fingerprint():
    """The fingerprint and the metrics snapshot (summed over the bed's
    hosts) of a ``udp_pingpong`` run at its registry scale."""
    record = run_once(WORKLOADS["udp_pingpong"],
                      WORKLOADS["udp_pingpong"].scale)
    return record["fingerprint"], {
        name: row["value"] for name, row in record["metrics"].items()}


class TestFlowCache:
    """Generated scans against the reference one, on a whole run."""

    def test_cache_off_is_bit_identical(self):
        compiled_fp, compiled_metrics = _udp_fingerprint()
        assert compiled_metrics[_SCANS] > 0

        with scan():
            linear_fp, linear_metrics = _udp_fingerprint()

        # Generated scans charge identical simulated costs in identical
        # order, and are built exactly where the reference is.
        assert compiled_fp == linear_fp
        assert compiled_metrics == linear_metrics

    @staticmethod
    def _compiles_per_packet():
        """Each packet's compile count on the receiver, and its scans."""
        bed = build_testbed("spin", "ethernet")
        receiver = bed.stacks[1].udp_manager.bind(Credential("s"), 7000, _sink)
        assert receiver is not None
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _sink)

        def send_one():
            sender.send(b"x" * 16, bed.ip(1), 7000)
        dispatcher = bed.hosts[1].dispatcher
        counts = []
        for _ in range(4):
            bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
            bed.engine.run()
            counts.append(dispatcher.compiled_scans)
        return counts, [event._scan for event in dispatcher.events.values()
                        if event._scan is not None]

    def test_hits_after_warmup(self):
        counts, scans = self._compiles_per_packet()
        # The first packet compiles each event's scan on its way up;
        # later packets run them.
        assert counts[0] > 0 and counts == counts[:1] * 4
        assert scans and all(fn.__code__.co_filename.startswith("<codegen:")
                             for fn in scans)
        # The reference is built exactly where generated code is.
        with scan():
            reference_counts, reference_scans = self._compiles_per_packet()
        assert reference_counts == counts
        assert all(fn.func is reference_scan for fn in reference_scans)
        # The flow entry perfbench asks for is always None.
        assert SpinKernel(Engine(), "k").dispatcher.flow_cache.entry_for(
            ("k",)) is None

    def test_uninstall_invalidates_plan(self, spin_pair):
        """After uninstalling a handler, generated code must not call it."""
        bed = spin_pair
        hits = []

        @ephemeral
        def on_dgram(m, off, src_ip, src_port, dst_ip, dst_port):
            hits.append(dst_port)

        receiver = bed.stacks[1].udp_manager.bind(
            Credential("s"), 7000, on_dgram)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _sink)

        def send_one():
            sender.send(b"x" * 16, bed.ip(1), 7000)
        for _ in range(3):
            bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
            bed.engine.run()
        delivered_before = len(hits)
        assert delivered_before == 3

        receiver.close()  # uninstalls the bound handler
        bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
        bed.engine.run()
        assert len(hits) == delivered_before  # stale scan did not run

    def test_counters_in_wallclock_report(self):
        """No suite is named that any more; the compile count rides in
        every run record's metrics snapshot, not in its fingerprint."""
        fingerprint, metrics = _udp_fingerprint()
        assert _SCANS in metrics
        assert _SCANS not in fingerprint
        assert not any(name.startswith("spin.flowcache.") for name in metrics)


# ---------------------------------------------------------------------------
# tracer: TCP options
# ---------------------------------------------------------------------------

class TestTraceTcpOptions:
    def test_decode_mss_and_window_scale(self):
        options = bytes([2, 4, 0x23, 0xC4]) + bytes([1]) + bytes([3, 3, 7])
        assert _decode_tcp_options(options) == "mss 9156,nop,ws 7"

    def test_decode_unknown_and_eol(self):
        options = bytes([8, 10]) + bytes(8) + bytes([0])
        assert _decode_tcp_options(options) == "opt-8,eol"

    def test_decode_malformed(self):
        assert _decode_tcp_options(bytes([2, 44, 1])) == "malformed"

    def test_handshake_shows_mss(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        tracer.attach(bed.nics[1])
        bed.stacks[1].tcp_manager.listen(Credential("s"), 9000,
                                         lambda tcb: None)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: bed.stacks[0].tcp_manager.connect(
                Credential("c"), bed.ip(1), 9000)))
        bed.engine.run()
        # Both SYN and SYN|ACK advertise the Ethernet MSS (1500 - 40).
        syns = tracer.matching("opts=[mss 1460]")
        assert len(syns) >= 2
        # Data-less ACKs carry no options and no opts=[] noise.
        acks = tracer.matching("[ACK]")
        assert acks and all("opts=" not in r.summary for r in acks)
