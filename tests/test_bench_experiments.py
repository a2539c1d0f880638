"""Smoke tests of the experiment harness functions (small trip counts).

The paper's claims are rows of ``repro.bench.claims``, asserted in
``benchmarks/``; these tests pin the harness *interfaces* -- result
structure, units, and the most basic relationships -- so refactors of
the bench code fail fast under plain pytest.
"""

import pytest

from repro.bench import throughput
from repro.bench.ablations import delivery_mode_ablation
from repro.bench.claims import paper
from repro.bench.forwarding import measure_plexus_forwarding
from repro.bench.latency import (
    figure5,
    measure_plexus_udp_rtt,
    measure_raw_rtt,
    measure_unix_udp_rtt,
)
from repro.bench.micro import dispatcher_overhead_per_handler
from repro.bench.testbed import build_testbed
from repro.bench.throughput import (
    measure_raw_throughput,
    measure_udp_throughput,
)
from repro.bench.video import measure_video_server
from repro.hw.nic import NIC
from repro.sim import SimulationError


class TestLatencyHarness:
    def test_summary_structure(self):
        summary = measure_plexus_udp_rtt("ethernet", trips=3)
        assert summary.n == 3
        assert summary.minimum <= summary.mean <= summary.maximum

    def test_deterministic_repeats(self):
        a = measure_plexus_udp_rtt("t3", trips=3).mean
        b = measure_plexus_udp_rtt("t3", trips=3).mean
        assert a == b

    def test_steady_state_has_low_variance(self):
        summary = measure_plexus_udp_rtt("atm", trips=5)
        assert summary.stdev < summary.mean * 0.05

    def test_raw_below_full_stack(self):
        raw = measure_raw_rtt("ethernet", trips=3).mean
        full = measure_plexus_udp_rtt("ethernet", trips=3).mean
        assert raw < full

    def test_unix_measure_works_on_all_devices(self):
        for device in ("ethernet", "atm", "t3"):
            assert measure_unix_udp_rtt(device, trips=2).mean > 0

    def test_figure5_rows_complete(self):
        rows = figure5(trips=2, devices=("t3",))
        systems = {row["system"] for row in rows}
        assert systems == {"raw-driver", "plexus-interrupt",
                           "plexus-thread", "digital-unix"}

    def test_paper_anchor_table_is_wellformed(self):
        # The report's paper_us column: one positive ledger target per
        # device the paper gives a Plexus-interrupt latency for.
        for device in ("ethernet", "atm", "t3", "ethernet-fast", "atm-fast"):
            key = "fig5.%s.plexus-interrupt" % device
            value = paper(key)
            assert value is not None and value > 0, key


class TestThroughputHarness:
    # The T3 is a 45 Mb/s wire, and its frames carry headers too.  N
    # arrivals span N-1 intervals: counting the first one's bytes read
    # 45.8 Mb/s on both of these.
    def test_udp_throughput_positive_and_bounded(self):
        mbps = measure_udp_throughput("spin", "t3", 150_000)
        assert 0 < mbps <= 45.0

    def test_raw_throughput_below_wire(self):
        mbps = measure_raw_throughput("t3", frames=50)
        assert 0 < mbps <= 45.0

    def test_socket_udp_throughput_below_wire(self):
        assert 0 < measure_udp_throughput("unix", "t3", 400_000) <= 45.0

    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    def test_udp_blast_is_lossless(self, os_name, monkeypatch):
        # The ledger's 400 KB blast is 98 datagrams of 4,096 bytes.  The
        # Plexus sender stages them from kernel paths faster than the T3
        # drains them: on 64-entry rings its NIC dropped 10 and 88 arrived.
        beds = []

        def spy(*args, **kwargs):
            beds.append(build_testbed(*args, **kwargs))
            return beds[-1]
        monkeypatch.setattr(throughput, "build_testbed", spy)
        measure_udp_throughput(os_name, "t3", 400_000)
        sender, receiver = beds[0].nics
        assert (sender.tx_frames, sender.tx_drops) == (98, 0)
        assert (receiver.rx_frames, receiver.rx_drops) == (98, 0)

    def test_lossy_udp_blast_fails(self, monkeypatch):
        monkeypatch.setattr(NIC, "provision_rings", lambda nic, depth: None)
        with pytest.raises(SimulationError, match="88 of 98 datagrams"):
            measure_udp_throughput("spin", "t3", 400_000)

    def test_paper_anchor_table(self):
        assert paper("sec42.atm.plexus") == 33.0


class TestVideoHarness:
    def test_result_fields(self):
        result = measure_video_server("spin", 2, duration_s=0.2)
        assert set(result) >= {"os", "streams", "utilization",
                               "offered_mbps", "delivered_mbps",
                               "deadline_misses", "frames_sent"}
        assert 0 <= result["utilization"] <= 1.0
        assert result["streams"] == 2

    def test_offered_load_formula(self):
        result = measure_video_server("spin", 3, duration_s=0.2)
        assert result["offered_mbps"] == pytest.approx(9.0)


class TestForwardingHarness:
    def test_result_fields(self):
        result = measure_plexus_forwarding(trips=3)
        assert result["system"] == "plexus"
        assert result["rtt"].n == 3
        assert result["connect_us"] > 0


class TestMicroAndAblationHarness:
    def test_dispatcher_fields(self):
        result = dispatcher_overhead_per_handler(handlers=4, raises=10)
        assert result["per_handler_us"] > 0
        assert result["ratio_to_procedure_call"] > 0

    def test_delivery_mode_fields(self):
        result = delivery_mode_ablation(trips=2)
        assert result["thread_us"] > result["interrupt_us"]
