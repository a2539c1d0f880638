"""The composable impairment model: bursty loss, reorder, dup, flaps...

Model-level tests pin down the seeded draw discipline (same (seed,
config) -> bit-identical fates) and each impairment's semantics; the
medium-level tests check the wiring into the three media.
"""

import pytest

from repro.bench.testbed import build_testbed
from repro.hw.link import Frame, ImpairmentConfig, ImpairmentModel

from test_faults_and_trace import tcp_transfer


def _frame(n=64):
    return Frame(bytes(n), "aa:0", "aa:1")


def _run_model(model, frames=400, now=0.0):
    """Feed synthetic frames; returns the flat list of fates."""
    fates = []
    for _ in range(frames):
        fates.append(model.apply(now, _frame()))
    return fates


class TestConfig:
    def test_rates_validated(self):
        for field in ("loss_good", "loss_bad", "p_good_bad", "corrupt_rate",
                      "duplicate_rate", "reorder_rate"):
            with pytest.raises(ValueError):
                ImpairmentModel(ImpairmentConfig(**{field: 1.5}))

    def test_bandwidth_scale_validated(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(bandwidth_scale=0.0).validate()
        with pytest.raises(ValueError):
            ImpairmentConfig(bandwidth_scale=1.5).validate()

    def test_flap_windows_validated(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(flaps=((200.0, 100.0),)).validate()

    def test_dict_round_trip(self):
        config = ImpairmentConfig(loss_bad=0.3, p_good_bad=0.05,
                                  reorder_rate=0.1, flaps=((10.0, 20.0),))
        assert ImpairmentConfig.from_dict(config.to_dict()) == config


class TestModel:
    def test_same_seed_same_fates(self):
        config = ImpairmentConfig(loss_good=0.02, loss_bad=0.4,
                                  p_good_bad=0.1, p_bad_good=0.3,
                                  corrupt_rate=0.05, duplicate_rate=0.05,
                                  reorder_rate=0.1, jitter_us=100.0)
        one = _run_model(ImpairmentModel(config, seed=7))
        two = _run_model(ImpairmentModel(config, seed=7))
        fates1 = [[(d, f.data) for d, f in fate] for fate in one]
        fates2 = [[(d, f.data) for d, f in fate] for fate in two]
        assert fates1 == fates2

    def test_different_seed_different_fates(self):
        config = ImpairmentConfig(loss_good=0.2)
        one = ImpairmentModel(config, seed=1)
        two = ImpairmentModel(config, seed=2)
        pattern1 = [len(fate) for fate in _run_model(one)]
        pattern2 = [len(fate) for fate in _run_model(two)]
        assert pattern1 != pattern2

    def test_gilbert_elliott_loses_only_in_bad_state(self):
        config = ImpairmentConfig(loss_good=0.0, loss_bad=0.9,
                                  p_good_bad=0.05, p_bad_good=0.3)
        model = ImpairmentModel(config, seed=3)
        _run_model(model, frames=1000)
        assert model.lost > 0
        # Bursty: losses far exceed what independent loss at the same
        # long-run rate concentrated in GOOD state could produce.
        no_bad = ImpairmentModel(
            ImpairmentConfig(loss_good=0.0, loss_bad=0.9, p_good_bad=0.0),
            seed=3)
        _run_model(no_bad, frames=1000)
        assert no_bad.lost == 0

    def test_flap_window_drops_everything(self):
        config = ImpairmentConfig(flaps=((100.0, 200.0),))
        model = ImpairmentModel(config, seed=1)
        assert model.apply(150.0, _frame()) == []
        assert model.flap_dropped == 1
        fates = model.apply(250.0, _frame())
        assert len(fates) == 1
        assert model.flap_dropped == 1

    def test_duplicate_delivers_two_copies(self):
        config = ImpairmentConfig(duplicate_rate=0.99, duplicate_gap_us=333.0)
        model = ImpairmentModel(config, seed=5)
        fates = _run_model(model, frames=50)
        doubles = [fate for fate in fates if len(fate) == 2]
        assert model.duplicated == len(doubles) > 0
        for (d0, f0), (d1, f1) in doubles:
            assert d1 == d0 + 333.0
            assert f1.data == f0.data

    def test_reorder_holds_frames_back(self):
        config = ImpairmentConfig(reorder_rate=0.5, reorder_hold_us=750.0)
        model = ImpairmentModel(config, seed=9)
        fates = _run_model(model, frames=100)
        held = [fate[0][0] for fate in fates if fate and fate[0][0] > 0]
        assert model.reordered == len(held) > 0
        assert all(delay == 750.0 for delay in held)

    def test_jitter_bounded(self):
        config = ImpairmentConfig(jitter_us=100.0)
        model = ImpairmentModel(config, seed=11)
        fates = _run_model(model, frames=100)
        delays = [fate[0][0] for fate in fates]
        assert all(0.0 <= d < 100.0 for d in delays)
        assert any(d > 0.0 for d in delays)

    def test_corruption_flips_one_bit(self):
        config = ImpairmentConfig(corrupt_rate=0.99)
        model = ImpairmentModel(config, seed=13)
        original = _frame()
        fates = model.apply(0.0, original)
        assert model.corrupted == 1
        (_, corrupted), = fates
        diff = [(a ^ b) for a, b in zip(original.data, corrupted.data)]
        flipped = [d for d in diff if d]
        assert len(flipped) == 1
        assert bin(flipped[0]).count("1") == 1


class TestMediumIntegration:
    def test_throttle_scales_wire_time(self):
        bed = build_testbed("spin", "ethernet")
        medium = bed.medium
        clean = medium._wire_time_us(1500)
        medium.set_impairments(ImpairmentConfig(bandwidth_scale=0.5))
        assert medium._wire_time_us(1500) == pytest.approx(2 * clean)
        medium.set_impairments(None)
        assert medium._wire_time_us(1500) == clean

    def test_tcp_survives_composed_impairments(self):
        bed = build_testbed("spin", "ethernet")
        model = bed.medium.set_impairments(ImpairmentConfig(
            loss_good=0.01, loss_bad=0.3, p_good_bad=0.05, p_bad_good=0.3,
            duplicate_rate=0.05, reorder_rate=0.05, jitter_us=50.0), seed=21)
        received = tcp_transfer(bed, total=40_000, deadline_us=20_000_000.0)
        assert received >= 40_000
        assert model.lost > 0
        assert model.duplicated > 0
        assert model.reordered > 0

    def test_frame_conservation_under_impairments(self):
        bed = build_testbed("spin", "t3")
        bed.medium.set_impairments(ImpairmentConfig(
            loss_good=0.05, duplicate_rate=0.05), seed=23)
        tcp_transfer(bed, total=20_000, deadline_us=20_000_000.0)
        medium = bed.medium
        assert medium.frames_delivered == medium.expected_deliveries()

    def test_link_flap_blackout_recovers(self):
        bed = build_testbed("spin", "ethernet")
        model = bed.medium.set_impairments(ImpairmentConfig(
            flaps=((10_000.0, 200_000.0),)))
        received = tcp_transfer(bed, total=40_000, deadline_us=20_000_000.0)
        assert received >= 40_000
        assert model.flap_dropped > 0

    def test_impairments_replayable_end_to_end(self):
        counters = []
        for _ in range(2):
            bed = build_testbed("spin", "ethernet")
            bed.medium.set_impairments(ImpairmentConfig(
                loss_good=0.02, loss_bad=0.4, p_good_bad=0.1,
                duplicate_rate=0.05, reorder_rate=0.05), seed=99)
            tcp_transfer(bed, total=20_000, deadline_us=20_000_000.0)
            counters.append((bed.medium.fault_counters(), bed.engine.now))
        assert counters[0] == counters[1]

    def test_ethernet_fanout_counts_all_listeners(self):
        bed = build_testbed("spin", "ethernet")
        assert bed.medium.delivery_fanout() == len(bed.medium.nics) - 1
