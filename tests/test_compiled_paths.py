"""Compiled delivery paths: generated scans, graph truth, bench knobs.

* the ``ProtocolGraph`` stays authoritative -- a direct
  ``HandlerHandle.uninstall()`` drops the edge from ``render()`` and the
  node in/out edge lists immediately;
* ``REPRO_FLOW_CACHE=0`` falls back to the interpreted linear scan with
  simulated time bit-identical to the generated scans;
* the compile count appears in every run record's metrics snapshot;
* the tracer decodes TCP options (MSS, window scale).
"""

import pytest

from repro.bench.testbed import build_testbed
from repro.bench.workloads import WORKLOADS, run_once
from repro.core import Credential, ProtocolGraph
from repro.lang import ephemeral
from repro.net.trace import PacketTracer, _decode_tcp_options
from repro.sim import Engine
from repro.spin import SpinKernel


@ephemeral
def _sink(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


# ---------------------------------------------------------------------------
# graph bookkeeping stays truthful
# ---------------------------------------------------------------------------

class TestGraphStaysAuthoritative:
    def test_direct_uninstall_drops_edge(self, kernel):
        graph = ProtocolGraph(kernel)
        eth = graph.add_node("ethernet", "protocol")
        ip = graph.add_node("ip", "protocol")
        event = kernel.dispatcher.declare("Ethernet.PacketRecv")
        edge = graph.install(event, lambda *a: None, eth, ip, label="ip-in")
        handle = edge.handle
        assert graph.edge_count() == 1
        assert "--> ip" in graph.render()

        # Uninstalling through the *handle* (not graph.remove_edge) must
        # still unlink the edge: the graph may not drift from dispatch.
        handle.uninstall()
        assert graph.edge_count() == 0
        assert "--> ip" not in graph.render()
        assert all(e.handle is not handle for e in eth.out_edges)
        assert all(e.handle is not handle for e in ip.in_edges)

    def test_uninstall_is_idempotent_with_remove_edge(self, kernel):
        graph = ProtocolGraph(kernel)
        a = graph.add_node("a", "protocol")
        b = graph.add_node("b", "extension")
        event = kernel.dispatcher.declare("A.Evt")
        edge = graph.install(event, lambda *a: None, a, b)
        handle = edge.handle
        graph.remove_edge(edge)
        assert not handle.installed
        assert graph.edge_count() == 0
        # remove_edge a second time is a no-op (edge already unlinked)...
        graph.remove_edge(edge)
        assert graph.edge_count() == 0
        # ...while a direct double-uninstall stays a dispatcher error.
        with pytest.raises(Exception):
            handle.uninstall()

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
# generated scans: observability and the escape hatch
# ---------------------------------------------------------------------------

_SCANS = "spin.dispatcher.compiled_scans"


def _udp_quick_fingerprint():
    """The fingerprint and the metrics snapshot (summed over the bed's
    hosts) of a quick ``udp_pingpong`` run."""
    record = run_once(WORKLOADS["udp_pingpong"],
                      WORKLOADS["udp_pingpong"].quick)
    return record["fingerprint"], {
        name: row["value"] for name, row in record["metrics"].items()}


class TestFlowCache:
    """``REPRO_FLOW_CACHE`` keeps its name: it switches generated scans."""

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        assert SpinKernel(Engine(), "k").dispatcher.compiled

    def test_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        dispatcher = SpinKernel(Engine(), "k").dispatcher
        assert not dispatcher.compiled
        # The entry perfbench asks for is always None.
        assert dispatcher.flow_cache.entry_for(("k",)) is None

    def test_cache_off_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        compiled_fp, compiled_metrics = _udp_quick_fingerprint()
        assert compiled_metrics[_SCANS] > 0

        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        linear_fp, linear_metrics = _udp_quick_fingerprint()
        assert linear_metrics[_SCANS] == 0

        # Generated scans charge identical simulated costs in identical
        # order.
        assert compiled_fp == linear_fp

    def test_hits_after_warmup(self, spin_pair):
        bed = spin_pair
        receiver = bed.stacks[1].udp_manager.bind(Credential("s"), 7000, _sink)
        assert receiver is not None
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _sink)

        def send_one():
            sender.send(b"x" * 16, bed.ip(1), 7000)
        dispatcher = bed.hosts[1].dispatcher
        for sent in range(4):
            bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
            bed.engine.run()
            if sent == 0:
                compiled = dispatcher.compiled_scans
        if dispatcher.compiled:  # honours an externally-set escape hatch
            # The first packet compiles each event's scan on its way up;
            # later packets run them.
            assert compiled > 0
            assert dispatcher.compiled_scans == compiled

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
        fingerprint, metrics = _udp_quick_fingerprint()
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
