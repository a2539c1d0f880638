"""Tests for the golden pins of the ledger (quick subset)."""

import pytest

from repro.bench.claims import CLAIMS, verdict

PINS = [claim for claim in CLAIMS if claim.kind == "golden"]


class TestGoldenChecks:
    def test_quick_headline_metrics_hold(self):
        for name in ("fig5.ethernet.plexus-interrupt.us",
                     "fig5.ethernet.unix.us", "sec42.ethernet.plexus.mbps"):
            row = verdict(name)
            assert row["ok"], row

    def test_every_metric_has_sane_tolerance(self):
        assert len(PINS) == 10
        for claim in PINS:
            assert claim.value > 0, claim.id
            assert 0 < claim.tolerance <= 0.2, claim.id
            assert claim.op == "<=", claim.id

    def test_check_one_record_shape(self):
        record = verdict("fig5.t3.plexus-interrupt.us")
        assert set(record) == {"metric", "expected", "measured",
                               "deviation", "tolerance", "ok"}
        assert record["ok"]

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            verdict("fig99.imaginary")
