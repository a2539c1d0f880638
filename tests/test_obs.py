"""Tests for repro.obs: registry, CPU profiler, span tracer, schema, wiring.

The two load-bearing guarantees:

* **Zero perturbation when off** -- attaching nothing leaves every
  simulated-time fingerprint bit-identical (the profiler equivalence
  test runs the same workload with and without instrumentation and
  compares fingerprints with ``==``, no tolerance); every observer at
  once, on every registry scenario, is ``test_observed_twin.py``.
* **Exact accounting when on** -- per-category totals are bit-equal to
  the CPU's own ``category_times`` and the profiler's consumed-time fold
  is bit-equal to summed ``busy_time`` across hosts.
"""

import itertools
import json
import sys

import pytest

from repro.bench.testbed import build_testbed
from repro.bench.workloads import run_workload
from repro.core import Credential
from repro.hw.cpu import CategoryTimes
from repro.lang import ephemeral
from repro.net.trace import PacketTracer
from repro.obs import (
    EXPORT_SCHEMA, CpuHook, CpuProfiler, DuplicateMetricError, MetricError,
    MetricsRegistry, RequestLifecycle, SloTracker, Span, SpanTracer,
    instrument_testbed, undocumented_metrics)
from repro.obs.__main__ import check_schema
from repro.obs.taps import Observer
from repro.sim import Signal


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names_must_be_dotted_lowercase(self):
        reg = MetricsRegistry()
        for bad in ("plain", "Upper.case", "a..b", "a.b-c", "", "a.b."):
            with pytest.raises(MetricError):
                reg.source(bad, lambda: 0)

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("a.b")
        with pytest.raises(DuplicateMetricError):
            reg.gauge("a.b")

    def test_source_aggregates_across_registrations(self):
        # Per-host rollup: registering the same gauge name with another
        # source fn sums the sources (hw.cpu.busy_us over N hosts).
        reg = MetricsRegistry()
        reg.source("hw.x.total", lambda: 2.0)
        reg.source("hw.x.total", lambda: 3.0)
        assert reg.names() == ["hw.x.total"] and len(reg) == 1
        assert reg.snapshot()["hw.x.total"]["value"] == 5.0

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.source("a.c", lambda: 7)
        reg.source("a.g", lambda: 1.5)
        decoded = json.loads(reg.to_json())
        assert decoded == reg.snapshot()
        assert decoded["a.c"] == {"type": "gauge", "value": 7}
        assert decoded["a.g"]["value"] == 1.5


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------

def _profiled_run(name):
    """Run a quick workload with a profiler attached; returns (record, prof)."""
    state = {}

    def instrument(bed):
        prof = CpuProfiler()
        prof.attach(bed.hosts)
        state["profiler"] = prof

    record = run_workload(name, quick=True, instrument=instrument)
    return record, state["profiler"]


class TestProfiler:
    def test_off_by_default_fingerprints_identical(self):
        plain = run_workload("udp_pingpong", quick=True)
        profiled, _ = _profiled_run("udp_pingpong")
        assert profiled["fingerprint"] == plain["fingerprint"]
        assert profiled["metrics"] == plain["metrics"]

    def test_categories_bit_exact_and_busy_reconciles(self):
        _, prof = _profiled_run("udp_pingpong")
        merged = {}
        for hook in prof._hooks:
            for category, amount in hook.cpu.category_times.items():
                merged[category] = merged.get(category, 0.0) + amount
        assert prof.categories() == merged
        # The consumed-time fold replays busy_time's float additions in
        # the same order, so the reconciliation is exact, not approximate.
        assert prof.consumed_us() == prof.busy_us()
        assert sum(prof.categories().values()) == pytest.approx(
            prof.busy_us(), rel=1e-12)

    def test_folded_output_deterministic(self):
        _, first = _profiled_run("udp_pingpong")
        _, second = _profiled_run("udp_pingpong")
        text = first.folded_text()
        assert text == second.folded_text()
        assert text.splitlines() == sorted(text.splitlines())
        for line in text.splitlines():
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack.split(";")[0].startswith("spin-h")

    def test_folded_has_paper_categories(self):
        _, prof = _profiled_run("tcp_bulk")
        categories = {line.rsplit(" ", 1)[0].split(";")[-1]
                      for line in prof.folded_lines()}
        for wanted in ("checksum", "dispatch", "copy"):
            assert wanted in categories
        assert categories & {"driver", "driver-pio"}

    def test_detach_restores_plain_dict(self):
        bed = build_testbed("spin", "ethernet")
        prof = CpuProfiler()
        prof.attach(bed.hosts)
        cpu = bed.hosts[0].cpu
        assert cpu.profile is not None
        assert type(cpu.category_times) is not CategoryTimes
        prof.detach()
        assert cpu.profile is None
        assert type(cpu.category_times) is CategoryTimes

    def test_install_uninstall_preserves_times(self):
        bed = build_testbed("spin", "ethernet")
        cpu = bed.hosts[0].cpu
        cpu.category_times["protocol"] = 4.5
        listener = object()
        hook = CpuHook(bed.hosts[0])
        hook.join(listener)
        assert cpu.category_times["protocol"] == 4.5
        cpu.category_times["protocol"] += 1.0
        hook.leave(listener)
        assert cpu.category_times["protocol"] == 5.5


# ---------------------------------------------------------------------------
# span tracer
# ---------------------------------------------------------------------------

class TestSpanTracer:
    def _run(self, limit=4096):
        state = {}

        def instrument(bed):
            tracer = SpanTracer(bed.engine, limit=limit)
            tracer.attach(bed.hosts, nics=bed.nics)
            state["tracer"] = tracer

        record = run_workload("udp_pingpong", quick=True,
                              instrument=instrument)
        return record, state["tracer"]

    def test_records_cpu_and_wire_spans(self):
        record, tracer = self._run()
        kinds = {span.kind for span in tracer.records}
        assert kinds >= {"cpu", "tx", "rx"}
        text = tracer.render(last=40)
        assert "us" in text and len(text.splitlines()) == 40

    def test_ring_buffer_caps_memory(self):
        _, tracer = self._run(limit=32)
        assert len(tracer.records) == 32
        assert tracer.dropped_records > 0


# ---------------------------------------------------------------------------
# the two seams: any-order attach/detach, uniform lifecycle
# ---------------------------------------------------------------------------

OBSERVERS = ("packets", "spans", "slo", "profiler")
ORDERS = list(itertools.permutations(OBSERVERS))


class _PingPong:
    """A spin/ethernet UDP echo driven one round trip at a time, with one
    observer of each kind built but not yet attached."""

    def __init__(self):
        self.bed = bed = build_testbed("spin", "ethernet")
        engine = bed.engine
        self.observers = {
            "packets": PacketTracer(engine),
            "spans": SpanTracer(engine),
            "slo": SloTracker(engine),
            "profiler": CpuProfiler(),
        }
        self.lifecycle = RequestLifecycle(engine, self.observers["slo"])
        client_host = bed.hosts[0]
        reply = Signal(engine)
        server = None
        #: called by the server's handler, inside its kernel path
        self.in_echo = None

        @ephemeral
        def echo(m, off, src_ip, src_port, dst_ip, dst_port):
            if self.in_echo is not None:
                self.in_echo()
            server.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

        @ephemeral
        def on_reply(m, off, src_ip, src_port, dst_ip, dst_port):
            client_host.defer(reply.fire)

        server = bed.stacks[1].udp_manager.bind(Credential("s"), 7007, echo)
        client = bed.stacks[0].udp_manager.bind(Credential("c"), 7001,
                                                on_reply)

        def ping():
            request = self.lifecycle.begin("ping")
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda: client.send(b"12345678", bed.ip(1), 7007))
            yield waiter
            self.lifecycle.end(request)
        self._ping = ping

    def attach(self, name):
        observer, bed = self.observers[name], self.bed
        if name == "packets":
            for nic in bed.nics:
                observer.attach(nic)
        elif name == "profiler":
            observer.attach(bed.hosts)
        else:
            observer.attach(bed.hosts, bed.nics)

    def detach(self, name):
        self.observers[name].detach()

    def _evidence(self):
        """Per observer, one monotone reading per seam it listens on."""
        packets, spans = self.observers["packets"], self.observers["spans"]
        kinds = [span.kind for span in spans.records]
        slo = self.lifecycle.component_totals_ns()
        return {
            "packets": (len(packets.records),),
            "spans": (kinds.count("cpu"), len(kinds) - kinds.count("cpu")),
            "slo": (slo["cpu_service"], slo["nic_ring"]),
            "profiler": (self.observers["profiler"].consumed_us(),),
        }

    def round_trip(self):
        """One ping-pong; returns (observers that saw it on every seam
        they listen on, observers that saw nothing at all)."""
        before = self._evidence()
        self.bed.engine.run_process(self._ping())
        self.bed.engine.run()
        after = self._evidence()
        saw_all = {name for name in OBSERVERS
                   if all(a > b for a, b in zip(after[name], before[name]))}
        saw_none = {name for name in OBSERVERS if after[name] == before[name]}
        return saw_all, saw_none


class TestTapSeams:
    @pytest.mark.parametrize("attach_order", ORDERS, ids="-".join)
    def test_attach_and_detach_in_any_order(self, attach_order):
        for detach_order in ORDERS:
            rig = _PingPong()
            attached = set()
            for names, act, note in (
                    (attach_order, rig.attach, attached.add),
                    (detach_order, rig.detach, attached.discard)):
                for name in names:
                    act(name)
                    note(name)
                    saw_all, saw_none = rig.round_trip()
                    where = "attach %s, detach %s, at %s" % (
                        attach_order, detach_order, name)
                    assert saw_all == attached, where
                    assert saw_none == set(OBSERVERS) - attached, where
            for nic in rig.bed.nics:
                assert nic.taps is None
                assert "stage_tx" not in vars(nic)
                assert "frame_on_wire" not in vars(nic)
            for host in rig.bed.hosts:
                assert host.cpu.profile is None
                assert type(host.cpu.category_times) is CategoryTimes

    @pytest.mark.parametrize("name", OBSERVERS)
    def test_second_detach_is_a_noop(self, name):
        rig = _PingPong()
        rig.attach(name)
        rig.attach("spans" if name != "spans" else "slo")
        rig.detach(name)
        rig.detach(name)
        saw_all, saw_none = rig.round_trip()
        assert name in saw_none
        assert len(saw_all) == 1

    def test_profiler_readouts_survive_detach(self):
        rig = _PingPong()
        rig.attach("profiler")
        rig.round_trip()
        profiler = rig.observers["profiler"]
        live = (profiler.report(), profiler.categories(),
                profiler.folded_text())
        assert live[0]["consumed_us"] > 0.0 and live[1] and live[2].strip()
        profiler.detach()
        assert (profiler.report(), profiler.categories(),
                profiler.folded_text()) == live

    def test_profiler_reattach_reads_each_cpu_once(self):
        rig = _PingPong()
        rig.attach("profiler")
        rig.round_trip()
        profiler = rig.observers["profiler"]
        once = (profiler.categories(), profiler.busy_us(), profiler.stacks)
        rig.detach("profiler")
        rig.attach("profiler")      # a second hook on each of the same CPUs
        assert (profiler.categories(), profiler.busy_us(),
                profiler.stacks) == once
        rig.round_trip()
        # The second hook's table holds the second trip, which charges
        # what the first did: the fold over both doubles every stack.
        assert profiler.stacks == pytest.approx(
            {key: 2 * value for key, value in once[2].items()})
        assert profiler.consumed_us() == profiler.busy_us()
        for host in profiler.report()["hosts"].values():
            assert host["consumed_us"] == host["busy_us"]

    def test_push_is_heard_at_depth_zero_and_pop_at_every_depth(self):
        """``on_push`` hears a kernel path's entry only; the dispatcher
        events opened inside it reach ``on_pop`` alone."""
        rig = _PingPong()
        rig.round_trip()
        heard = []

        class Ear(Observer):
            def on_push(self, hook, label):
                heard.append(("push", hook.depth, label))

            def on_pop(self, hook, label, charged_us):
                heard.append(("pop", hook.depth, label))

        Ear().attach(rig.bed.hosts)
        rig.round_trip()
        pushes = [(depth, label) for kind, depth, label in heard
                  if kind == "push"]
        pops = [(depth, label) for kind, depth, label in heard
                if kind == "pop"]
        entries = [(0, "<lambda>"), (0, "interrupt_body"),
                   (0, "interrupt_body")]
        assert pushes == entries
        assert [pop for pop in pops if pop[0] == 0] == entries
        assert sorted({depth for depth, _label in pops}) == [0, 1, 2, 3]
        assert len(pops) == SEAM_TRAFFIC["pop"]

    def test_tracer_joining_mid_frame_records_the_enclosing_frame(self):
        # The frame stack is the hook's, not the tracer's: the enclosing
        # pop used to reach a tracer that had seen no push (IndexError
        # out of kernel_path's finally).
        bed = build_testbed("spin", "ethernet")
        host = bed.hosts[0]
        CpuProfiler().attach(bed.hosts)
        tracer = SpanTracer(bed.engine)

        def body():
            host.cpu.charge(2.5, "protocol")
            tracer.attach(bed.hosts, bed.nics)
            host.cpu.charge(1.5, "protocol")

        bed.engine.run_process(host.kernel_path(body))
        assert [(span.label, span.depth, span.kind, span.charged_us)
                for span in tracer.records] == [("body", 0, "cpu", 4.0)]

    @pytest.mark.parametrize("name", ["spans", "packets"])
    def test_render_last_counts_from_the_tail(self, name):
        rig = _PingPong()
        rig.attach(name)
        rig.round_trip()
        tracer = rig.observers[name]
        lines = tracer.render().splitlines()
        assert len(lines) == len(tracer.records) >= 4
        assert tracer.render(last=0) == ""
        assert tracer.render(last=3).splitlines() == lines[-3:]
        assert tracer.render(last=len(lines) + 1).splitlines() == lines
        with pytest.raises(ValueError):
            tracer.render(last=-1)
        small = type(tracer)(rig.bed.engine, limit=2)
        for record in tracer.records:
            small._record(record)
        assert small.render(last=0) == "... %d %s dropped (ring limit 2)" % (
            len(lines) - 2, small.noun)

    @pytest.mark.parametrize("name", ["spans", "packets"])
    def test_ring_contract_after_a_wrap_and_a_clear(self, name):
        rig = _PingPong()
        rig.attach(name)
        tracer = rig.observers[name]
        small = type(tracer)(rig.bed.engine, limit=3)
        if name == "packets":
            for nic in rig.bed.nics:
                small.attach(nic)
        else:
            small.attach(rig.bed.hosts, rig.bed.nics)
        for trip in range(2):
            if trip:
                tracer.clear()
                small.clear()
                assert (small.records, small.dropped_records,
                        small.render()) == ([], 0, "")
            rig.round_trip()
            lines = tracer.render().splitlines()
            dropped = len(lines) - 3
            assert tracer.dropped_records == 0
            assert small.dropped_records == dropped
            assert [small._line(r) for r in small.records] == lines[-3:]
            assert small.render(last=2).splitlines() == lines[-2:] + [
                "... %d %s dropped (ring limit 3)" % (dropped, small.noun)]
            if name == "spans":
                records = tracer.records + small.records
                assert {type(span) for span in records} == {Span}
                if not trip:
                    assert tracer.records[:len(PINNED_SPANS)] == [
                        Span(*row) for row in PINNED_SPANS]


class TestHookSwapInsideAKernelPath:
    """The first observer attaching, or the last detaching, inside a
    kernel path: the path's inlined charge sites hold ``category_times``
    in a local until it ends, so the hook swaps the dict only after the
    path's last charge.  Swapping it at once sent the rest of the path's
    charges to an orphaned dict (spin-h2's ``interrupt`` read 8.0, not
    10.0, and its categories no longer summed to its busy time)."""

    @staticmethod
    def _cpus(rig):
        return [(dict(host.cpu.category_times), host.cpu.busy_time)
                for host in rig.bed.hosts]

    @pytest.mark.parametrize("act", ["attach", "detach"])
    def test_totals_equal_the_unobserved_run(self, act):
        plain = _PingPong()
        plain.round_trip()
        rig = _PingPong()
        profiler = rig.observers["profiler"]
        if act == "attach":
            rig.in_echo = lambda: profiler.attach(rig.bed.hosts)
        else:
            rig.attach("profiler")
            rig.in_echo = profiler.detach
        rig.round_trip()
        assert self._cpus(rig) == self._cpus(plain)
        for host in rig.bed.hosts:
            installed = host.cpu.profile is not None
            assert installed is (act == "attach")
            assert (type(host.cpu.category_times) is CategoryTimes) is not installed


# ---------------------------------------------------------------------------
# the observed round trip, pinned: outputs byte for byte, seam traffic by count
# ---------------------------------------------------------------------------

# Recorded on the parent of the PR that moved charge booking onto the
# hook: all four observers on the _PingPong rig, three round trips.

PINNED_FOLDED = """\
spin-h1;<lambda>;checksum 4032
spin-h1;<lambda>;dispatch 900
spin-h1;<lambda>;driver 225000
spin-h1;<lambda>;mbuf 3600
spin-h1;<lambda>;protocol 42000
spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;dispatch 1650
spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;checksum 2352
spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;dispatch 3150
spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;protocol 12000
spin-h1;interrupt_body;Ethernet.PacketRecv;checksum 1680
spin-h1;interrupt_body;Ethernet.PacketRecv;dispatch 2400
spin-h1;interrupt_body;Ethernet.PacketRecv;protocol 15000
spin-h1;interrupt_body;driver 270000
spin-h1;interrupt_body;interrupt 30000
spin-h1;interrupt_body;mbuf 3600
spin-h1;interrupt_body;protocol 9000
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;checksum 4032
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;dispatch 2550
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;driver 225000
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;mbuf 3600
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;protocol 42000
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;checksum 2352
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;dispatch 3150
spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;protocol 12000
spin-h2;interrupt_body;Ethernet.PacketRecv;checksum 1680
spin-h2;interrupt_body;Ethernet.PacketRecv;dispatch 2400
spin-h2;interrupt_body;Ethernet.PacketRecv;protocol 15000
spin-h2;interrupt_body;driver 270000
spin-h2;interrupt_body;interrupt 30000
spin-h2;interrupt_body;mbuf 3600
spin-h2;interrupt_body;protocol 9000
"""

#: CpuProfiler.stacks, keys ";"-joined; floats compare with ==
PINNED_STACKS = {
    "spin-h1;<lambda>;checksum": 4.032,
    "spin-h1;<lambda>;dispatch": 0.8999999999999997,
    "spin-h1;<lambda>;driver": 225.0,
    "spin-h1;<lambda>;mbuf": 3.5999999999999996,
    "spin-h1;<lambda>;protocol": 42.0,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;dispatch":
        1.6499999999999997,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;checksum":
        2.3520000000000003,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;dispatch":
        3.1499999999999995,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;protocol": 12.0,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;checksum": 1.680000000000001,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;dispatch": 2.3999999999999986,
    "spin-h1;interrupt_body;Ethernet.PacketRecv;protocol": 15.0,
    "spin-h1;interrupt_body;driver": 270.0,
    "spin-h1;interrupt_body;interrupt": 30.0,
    "spin-h1;interrupt_body;mbuf": 3.6000000000000005,
    "spin-h1;interrupt_body;protocol": 9.0,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;checksum":
        4.032,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;dispatch":
        2.5499999999999994,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;driver":
        225.0,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;mbuf":
        3.6000000000000005,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;UDP.PacketRecv;protocol":
        42.0,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;checksum":
        2.3519999999999994,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;dispatch":
        3.1499999999999995,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;IP.PacketRecv;protocol": 12.0,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;checksum": 1.6800000000000006,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;dispatch": 2.3999999999999986,
    "spin-h2;interrupt_body;Ethernet.PacketRecv;protocol": 15.0,
    "spin-h2;interrupt_body;driver": 270.0,
    "spin-h2;interrupt_body;interrupt": 30.0,
    "spin-h2;interrupt_body;mbuf": 3.5999999999999996,
    "spin-h2;interrupt_body;protocol": 9.0,
}

PINNED_RENDER = """\
       0.0  spin-h1    tx ln0
       0.0  spin-h1    <lambda> (91.84us)
     155.6  spin-h2    rx ln0
     170.6  spin-h2    tx ln0
     170.6  spin-h2          UDP.PacketRecv (92.39us)
     170.6  spin-h2        IP.PacketRecv (5.83us)
     170.6  spin-h2      Ethernet.PacketRecv (6.36us)
     170.6  spin-h2    interrupt_body (104.20us)
     443.2  spin-h1    rx ln0
     458.2  spin-h1          UDP.PacketRecv (0.55us)
     458.2  spin-h1        IP.PacketRecv (5.83us)
     458.2  spin-h1      Ethernet.PacketRecv (6.36us)
     458.2  spin-h1    interrupt_body (104.20us)
     575.2  spin-h1    tx ln0
     575.2  spin-h1    <lambda> (91.84us)
     730.8  spin-h2    rx ln0
     745.8  spin-h2    tx ln0
     745.8  spin-h2          UDP.PacketRecv (92.39us)
     745.8  spin-h2        IP.PacketRecv (5.83us)
     745.8  spin-h2      Ethernet.PacketRecv (6.36us)
     745.8  spin-h2    interrupt_body (104.20us)
    1018.4  spin-h1    rx ln0
    1033.4  spin-h1          UDP.PacketRecv (0.55us)
    1033.4  spin-h1        IP.PacketRecv (5.83us)
    1033.4  spin-h1      Ethernet.PacketRecv (6.36us)
    1033.4  spin-h1    interrupt_body (104.20us)
    1150.4  spin-h1    tx ln0
    1150.4  spin-h1    <lambda> (91.84us)
    1306.0  spin-h2    rx ln0
    1321.0  spin-h2    tx ln0
    1321.0  spin-h2          UDP.PacketRecv (92.39us)
    1321.0  spin-h2        IP.PacketRecv (5.83us)
    1321.0  spin-h2      Ethernet.PacketRecv (6.36us)
    1321.0  spin-h2    interrupt_body (104.20us)
    1593.6  spin-h1    rx ln0
    1608.6  spin-h1          UDP.PacketRecv (0.55us)
    1608.6  spin-h1        IP.PacketRecv (5.83us)
    1608.6  spin-h1      Ethernet.PacketRecv (6.36us)
    1608.6  spin-h1    interrupt_body (104.20us)"""

#: every field of the first trip's spans (render() rounds two of them)
PINNED_SPANS = [
    (0.0, "spin-h1", 0, "ln0", "tx", 0.0),
    (0.0, "spin-h1", 0, "<lambda>", "cpu", 91.844),
    (155.644, "spin-h2", 0, "ln0", "rx", 0.0),
    (170.644, "spin-h2", 0, "ln0", "tx", 0.0),
    (170.644, "spin-h2", 3, "UDP.PacketRecv", "cpu", 92.394),
    (170.644, "spin-h2", 2, "IP.PacketRecv", "cpu", 5.834),
    (170.644, "spin-h2", 1, "Ethernet.PacketRecv", "cpu", 6.359999999999999),
    (170.644, "spin-h2", 0, "interrupt_body", "cpu", 104.2),
    (443.232, "spin-h1", 0, "ln0", "rx", 0.0),
    (458.232, "spin-h1", 3, "UDP.PacketRecv", "cpu", 0.55),
    (458.232, "spin-h1", 2, "IP.PacketRecv", "cpu", 5.834),
    (458.232, "spin-h1", 1, "Ethernet.PacketRecv", "cpu", 6.359999999999999),
    (458.232, "spin-h1", 0, "interrupt_body", "cpu", 104.2),
]

PINNED_REQUEST = (575176, {"cpu_service": 417576, "nic_ring": 30000,
                           "propagation": 127600, "stall": 0})

#: calls per round trip into the two seams, all four observers attached:
#: consumption, tx and rx reach their listeners with no relay frame (3,
#: 2 and 2 before), and a steady push opens no new cell
SEAM_TRAFFIC = {"__setitem__": 52, "push": 9, "pop": 9, "_open": 0,
                "consumed": 0, "tx": 0, "rx": 0}

#: calls into and out of repro/obs/ per round trip, all four observers;
#: 297 before the CPU hook kept one linked frame stack, the span ring
#: plain tuples and the SLO waypoints no helper frames; 181 before the
#: SLO tracker walked its critical path at close; 174 before the seams
#: lost their relays, the span tracer its helper frames and ``on_push``
#: its depth > 0 calls (the packet tracer's listeners, no longer called
#: from ``repro/obs/``, account for 4 of the 34)
OBSERVER_CALLS = 140


def _observed_rig():
    rig = _PingPong()
    for name in OBSERVERS:
        rig.attach(name)
    return rig


class TestObservedRoundTrip:
    def test_outputs_equal_the_recorded_ones(self):
        rig = _observed_rig()
        for _ in range(3):
            rig.round_trip()
        profiler, spans = rig.observers["profiler"], rig.observers["spans"]
        assert profiler.folded_text() == PINNED_FOLDED
        assert sorted(profiler.stacks.items()) == sorted(
            (tuple(key.split(";")), value)
            for key, value in PINNED_STACKS.items())
        assert spans.render() == PINNED_RENDER
        assert [(span.time, span.host, span.depth, span.label, span.kind,
                 span.charged_us)
                for span in spans.records[:len(PINNED_SPANS)]] == PINNED_SPANS
        assert [(request.total_ns, request.components)
                for request in rig.lifecycle.completed] == [PINNED_REQUEST] * 3

    def test_seam_traffic_and_nothing_listens_per_charge(self):
        """The observer budget: 52 charges / 9 push / 9 pop a trip and no
        relay for consumption, tx or rx, and a charge enters one function
        under ``repro/obs/`` -- the ``_ProfilingTimes.__setitem__`` that
        books it.  A per-charge listener or a relay creeping back is a
        red test."""
        rig = _observed_rig()
        rig.round_trip()
        seam_calls = dict.fromkeys(SEAM_TRAFFIC, 0)
        under_a_charge = []
        booking = []        # the open __setitem__ frame, if any

        def on_event(frame, event, arg):
            code = frame.f_code
            if "/repro/obs/" not in code.co_filename:
                return
            if event == "call":
                if booking:
                    under_a_charge.append(code.co_name)
                if code.co_filename.endswith("taps.py") \
                        and code.co_name in seam_calls:
                    seam_calls[code.co_name] += 1
                    if code.co_name == "__setitem__":
                        booking.append(frame)
            elif event == "return" and booking and booking[-1] is frame:
                booking.pop()

        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            rig.round_trip()
        finally:
            sys.setprofile(previous)
        assert seam_calls == SEAM_TRAFFIC
        assert under_a_charge == []

    def test_observer_call_budget(self):
        """Every Python and C call into or out of code under
        ``repro/obs/`` during one round trip (the rig's readouts not
        included).  A call creeping back onto the packet path is a red
        test."""
        rig = _observed_rig()
        rig.round_trip()
        calls = []

        def on_event(frame, event, arg):
            if event == "call":
                caller = frame.f_back
                if "/repro/obs/" in frame.f_code.co_filename or (
                        caller is not None
                        and "/repro/obs/" in caller.f_code.co_filename):
                    calls.append(frame.f_code.co_name)
            elif event == "c_call" \
                    and "/repro/obs/" in frame.f_code.co_filename:
                calls.append(arg.__name__)

        engine = rig.bed.engine
        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            engine.run_process(rig._ping())
            engine.run()
        finally:
            sys.setprofile(previous)
        assert len(calls) == OBSERVER_CALLS, sorted(calls)


# ---------------------------------------------------------------------------
# schema + wiring
# ---------------------------------------------------------------------------

class TestSchemaAndWiring:
    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_every_registered_metric_documented(self, os_name):
        bed = build_testbed(os_name, "ethernet")
        registry = instrument_testbed(bed)
        assert undocumented_metrics(registry) == []

    def test_check_schema_fails_on_a_row_nothing_registers(
            self, monkeypatch, capsys):
        assert check_schema() == 0
        monkeypatch.setitem(EXPORT_SCHEMA, "slo.latency.p99_ns",
                            ("gauge", "documented, never published"))
        assert check_schema() == 1
        assert "no bed registers: slo.latency.p99_ns" in capsys.readouterr().out

    def test_check_schema_still_fails_on_an_unlisted_source(
            self, monkeypatch, capsys):
        monkeypatch.delitem(EXPORT_SCHEMA, "hw.nic.tx_drops")
        assert check_schema() == 1
        assert "missing from EXPORT_SCHEMA: hw.nic.tx_drops" \
            in capsys.readouterr().out

    def test_wallclock_records_carry_metrics(self):
        record = run_workload("udp_pingpong", quick=True)
        metrics = record["metrics"]
        # Two datagrams a trip, each raised at Ethernet, IP and UDP.
        assert metrics["spin.dispatcher.raises"]["value"] == (
            6 * record["scale"])

    def test_chaos_verdict_carries_metrics(self):
        from repro.chaos import build_quick_corpus, run_campaign
        spec = build_quick_corpus(count=1)[0]
        verdict = run_campaign(spec)
        assert "metrics" in verdict
        assert any(name.startswith("sim.engine.")
                   for name in verdict["metrics"])

    def test_snapshot_matches_component_counters(self):
        bed = build_testbed("spin", "ethernet")
        registry = instrument_testbed(bed)
        snap = registry.snapshot()
        total_tx = sum(nic.tx_frames for nic in bed.nics)
        assert snap["hw.nic.tx_frames"]["value"] == total_tx
        assert snap["sim.engine.events_processed"]["value"] == (
            bed.engine.events_processed)
