"""The chaos campaign harness: determinism, invariants, repro bundles.

A campaign is a pure function of its spec, so the same spec must yield
byte-identical verdicts run twice; a deliberately broken invariant must
produce a bundle whose replay reproduces the identical failure.
"""

import json

from repro.chaos import (
    INVARIANTS, CampaignSpec, build_quick_corpus, load_bundle, run_campaign,
    sample_config, write_bundle)
from repro.chaos.campaign import _ROTATION
from repro.hw.link import ImpairmentConfig
from twins import scan

import random


def _quick_spec(**overrides):
    base = dict(name="t0", seed=4242, os_name="spin", device="ethernet",
                workload="tcp_bulk", scale=8_192, duration_us=2_000_000.0,
                config=ImpairmentConfig(loss_good=0.02, loss_bad=0.3,
                                        p_good_bad=0.05, p_bad_good=0.3,
                                        duplicate_rate=0.03,
                                        reorder_rate=0.05))
    base.update(overrides)
    return CampaignSpec(**base)


class TestRegistry:
    def test_at_least_six_invariants_registered(self):
        assert len(INVARIANTS) >= 6
        for required in ("byte_exact_delivery", "terminal_socket_states",
                         "frame_conservation", "mbuf_conservation",
                         "engine_drained", "slo_reconciliation"):
            assert required in INVARIANTS

    def test_rotation_covers_oses_devices_workloads(self):
        oses = {entry[0] for entry in _ROTATION}
        devices = {entry[1] for entry in _ROTATION}
        workloads = {entry[2] for entry in _ROTATION}
        assert oses == {"spin", "unix"}
        assert devices == {"ethernet", "atm", "t3"}
        assert workloads >= {"tcp_bulk", "udp_echo", "mixed"}


class TestSpec:
    def test_spec_round_trips_through_dict(self):
        spec = _quick_spec(sabotage="tamper_stream",
                           impair_wires=(0,), reroute=(0, 1.0))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_sample_config_is_deterministic_and_valid(self):
        one = sample_config(random.Random(77), 2_000_000.0)
        two = sample_config(random.Random(77), 2_000_000.0)
        assert one == two
        one.validate()

    def test_quick_corpus_is_stable(self):
        corpus1 = build_quick_corpus(count=9)
        corpus2 = build_quick_corpus(count=9)
        assert corpus1 == corpus2
        assert len(corpus1) == 9


class TestDeterminism:
    def test_same_spec_same_verdict(self):
        spec = _quick_spec()
        assert run_campaign(spec) == run_campaign(spec)

    def test_verdicts_are_json_clean(self):
        verdict = run_campaign(_quick_spec())
        assert json.loads(json.dumps(verdict)) == verdict


class TestInvariantsHold:
    def test_clean_wire_passes(self):
        verdict = run_campaign(_quick_spec(config=ImpairmentConfig()))
        assert verdict["passed"], verdict["violations"]

    def test_hostile_wire_passes(self):
        verdict = run_campaign(_quick_spec())
        assert verdict["passed"], verdict["violations"]
        # The wire was genuinely hostile.
        assert verdict["impairments"]["lost"] > 0

    def test_oracle_comparison_passes(self):
        """Under the ``scan`` twin the hostile campaign's whole verdict
        is the same."""
        verdict = run_campaign(_quick_spec())
        assert verdict["passed"], verdict["violations"]
        with scan():
            assert run_campaign(_quick_spec()) == verdict


class TestSabotage:
    def test_tampered_stream_fails_byte_exactness(self):
        verdict = run_campaign(_quick_spec(sabotage="tamper_stream"))
        assert not verdict["passed"]
        assert any("byte_exact_delivery" in v for v in verdict["violations"])
        assert verdict["trace_tail"]  # decoded tracer output for the bundle

    def test_leaked_timer_fails_quiesce(self):
        verdict = run_campaign(_quick_spec(sabotage="leak_timer"))
        assert not verdict["passed"]
        assert any("engine_drained" in v for v in verdict["violations"])

    def test_bundle_replay_reproduces_failure(self, tmp_path):
        verdict = run_campaign(_quick_spec(sabotage="tamper_stream"))
        path = write_bundle(verdict, str(tmp_path))
        replay_spec = load_bundle(path)
        replay = run_campaign(replay_spec)
        assert replay["violations"] == verdict["violations"]
        assert replay["fingerprint"] == verdict["fingerprint"]

    def test_bundle_is_self_describing(self, tmp_path):
        verdict = run_campaign(_quick_spec(sabotage="tamper_stream"))
        path = write_bundle(verdict, str(tmp_path))
        with open(path) as handle:
            bundle = json.load(handle)
        assert "--replay" in bundle["replay"]
        assert bundle["spec"]["seed"] == 4242
        assert bundle["violations"]


class TestCli:
    def test_quick_run_exits_zero(self, capsys, tmp_path):
        """The verdict lines are the whole output, the same on every run:
        the CLI prints nothing host-timed."""
        from repro.chaos.__main__ import main
        outs = []
        for _ in range(2):
            assert main(["--count", "2", "--bundle-dir", str(tmp_path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[-1] == "2/2 campaigns passed"

    def test_sabotaged_run_exits_nonzero_and_writes_bundle(
            self, capsys, tmp_path):
        from repro.chaos.__main__ import main
        rc = main(["--count", "1", "--sabotage", "tamper_stream",
                   "--bundle-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        bundles = list(tmp_path.glob("bundle_*.json"))
        assert len(bundles) == 1
        # And the advertised replay command round-trips.
        rc = main(["--replay", str(bundles[0]),
                   "--bundle-dir", str(tmp_path)])
        assert rc == 1
