"""Compiled delivery paths (PR 2): flow cache, graph truth, bench knobs.

Covers the tentpole and satellites of the compiled-path refactor:

* the ``ProtocolGraph`` stays authoritative -- a direct
  ``HandlerHandle.uninstall()`` drops the edge from ``render()`` and the
  node in/out edge lists immediately;
* ``REPRO_FLOW_CACHE=0`` falls back to linear dispatch with simulated
  time bit-identical to the cached path;
* flow-cache counters appear in every run record's metrics snapshot;
* the tracer decodes TCP options (MSS, window scale).
"""

import pytest

from repro.bench.testbed import build_testbed
from repro.bench.workloads import WORKLOADS, run_once
from repro.core import Credential, ProtocolGraph
from repro.lang import ephemeral
from repro.net.trace import PacketTracer, _decode_tcp_options
from repro.spin.flowcache import FlowCache, flow_cache_enabled


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
        """Install and uninstall each replace the event's snapshot tuple,
        the identity compiled plans and scans validate against."""
        event = kernel.dispatcher.declare("X.Evt")
        before = event._snapshot
        handle = kernel.dispatcher.install(event, lambda *a: None)
        assert event._snapshot is not before
        during = event._snapshot
        handle.uninstall()
        assert event._snapshot is not during
        assert event._snapshot == before


# ---------------------------------------------------------------------------
# flow cache: observability and the escape hatch
# ---------------------------------------------------------------------------

def _udp_quick_fingerprint():
    """The fingerprint and the ``spin.flowcache.*`` rows of the record's
    metrics snapshot (summed over the bed's hosts), by short name."""
    record = run_once(WORKLOADS["udp_pingpong"],
                      WORKLOADS["udp_pingpong"].quick)
    prefix = "spin.flowcache."
    return record["fingerprint"], {
        name[len(prefix):]: row["value"]
        for name, row in record["metrics"].items() if name.startswith(prefix)}


class TestFlowCache:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        assert flow_cache_enabled()
        assert FlowCache().enabled

    def test_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        assert not flow_cache_enabled()
        cache = FlowCache()
        assert not cache.enabled
        assert cache.entry_for(("k",)) is None

    def test_cache_off_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        cached_fp, cached_counters = _udp_quick_fingerprint()
        assert cached_counters["enabled"]
        assert cached_counters["hits"] > 0

        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        linear_fp, linear_counters = _udp_quick_fingerprint()
        assert not linear_counters["enabled"]
        assert linear_counters["hits"] == 0

        # Replay charges identical simulated costs in identical order.
        assert cached_fp == linear_fp

    def test_hits_after_warmup(self, spin_pair):
        bed = spin_pair
        receiver = bed.stacks[1].udp_manager.bind(Credential("s"), 7000, _sink)
        assert receiver is not None
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _sink)

        def send_one():
            sender.send(b"x" * 16, bed.ip(1), 7000)
        for _ in range(4):
            bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
            bed.engine.run()
        cache = bed.hosts[1].dispatcher.flow_cache
        if cache.enabled:  # honours an externally-set escape hatch
            assert len(cache.entries) >= 1
            # First packet of the flow records plans; later packets replay.
            assert cache.hits > 0

    def test_uninstall_invalidates_plan(self, spin_pair):
        """After uninstalling a handler, cached flows must not call it."""
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
        assert len(hits) == delivered_before  # stale plan did not replay

    def test_counters_in_wallclock_report(self):
        """No suite is named that any more; the counters ride in every
        run record's metrics snapshot."""
        fingerprint, counters = _udp_quick_fingerprint()
        for key in ("enabled", "hits", "misses", "invalidations",
                    "evictions", "entries"):
            assert key in counters
        # The flow-cache counters must not leak into the fingerprint.
        assert not set(counters) & set(fingerprint)


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
