"""Tests for the benchmark harness itself: stats, tables, testbeds."""

import pytest

from repro.bench.report import format_table
from repro.bench.stats import summarize
from repro.bench.testbed import build_raw_pair, build_testbed
from repro.hw import ForeAtm, LanceEthernet, T3Nic
from repro.hw.alpha import ALPHA_21064


class TestStats:
    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.n == 3
        assert s.stdev == pytest.approx(1.0)

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTables:
    def test_format_alignment_and_values(self):
        rows = [{"a": 1.2345, "b": "x"}, {"a": 10.0, "b": None}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.2" in text and "10.0" in text
        assert "-" in lines[-1]  # None rendered as '-'


class TestTestbedConstruction:
    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    @pytest.mark.parametrize("device", ["ethernet", "atm", "t3"])
    def test_all_combinations_build(self, os_name, device):
        bed = build_testbed(os_name, device)
        assert len(bed.hosts) == 2
        assert bed.hosts[0].name.startswith(os_name)

    def test_device_nic_types(self):
        assert isinstance(build_testbed("spin", "ethernet").nics[0],
                          LanceEthernet)
        assert isinstance(build_testbed("spin", "atm").nics[0], ForeAtm)
        assert isinstance(build_testbed("spin", "t3").nics[0], T3Nic)

    def test_t3_exactly_two_hosts(self):
        with pytest.raises(ValueError):
            build_testbed("spin", "t3", n_hosts=3)

    def test_unknown_os_and_device(self):
        with pytest.raises(ValueError):
            build_testbed("mach", "ethernet")
        with pytest.raises(ValueError):
            build_testbed("spin", "token-ring")

    def test_warm_arp_prepopulates(self):
        warm = build_testbed("spin", "ethernet", warm_arp=True)
        assert warm.stacks[0].arp.cache
        cold = build_testbed("spin", "ethernet", warm_arp=False)
        assert not cold.stacks[0].arp.cache

    def test_custom_cost_table(self):
        slower = ALPHA_21064.scaled(3.0)
        bed = build_testbed("spin", "ethernet", costs=slower)
        assert bed.hosts[0].costs.context_switch == \
            ALPHA_21064.context_switch * 3

    def test_ips_are_distinct(self):
        bed = build_testbed("spin", "ethernet", n_hosts=4)
        assert len(set(bed.ips)) == 4

    def test_raw_pair_devices(self):
        for device in ("ethernet", "atm", "t3"):
            engine, initiator, responder, nic_a, nic_b = build_raw_pair(device)
            assert initiator.echo is False
            assert responder.echo is True

    def test_fast_driver_profiles_cheaper(self):
        standard = build_testbed("spin", "ethernet").nics[0]
        fast = build_testbed("spin", "ethernet", fast_driver=True).nics[0]
        assert fast.profile.fixed_rx < standard.profile.fixed_rx
