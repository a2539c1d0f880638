"""Tests for the calibrated cost table: the reproduction's contract."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.hw.alpha import ALPHA_21064, CostTable, MICROSECONDS_PER_SECOND
from repro.hw.nic import DriverProfile


class TestCostTable:
    def test_all_costs_positive(self):
        for field in dataclasses.fields(CostTable):
            assert getattr(ALPHA_21064, field.name) > 0, field.name

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ALPHA_21064.procedure_call = 1.0

    def test_scaled_scales_every_field(self):
        doubled = ALPHA_21064.scaled(2.0)
        for field in dataclasses.fields(CostTable):
            assert getattr(doubled, field.name) == pytest.approx(
                getattr(ALPHA_21064, field.name) * 2)

    def test_units(self):
        assert MICROSECONDS_PER_SECOND == 1_000_000.0


_BAD_COSTS = st.sampled_from([-1.0, -1e-12, float("nan"), float("inf"),
                              float("-inf")])


class TestCostValidation:
    """A cost table is checked once, when it is built: the inlined charge
    sites (the interrupt body, ``udp.output``, ``ip.input``, the
    generated scans...) book a table's field with a bare ``+=``, where
    ``CPU.charge`` would reject a negative one.  So a negative, NaN or
    infinite cost must not construct at all."""

    @given(field=st.sampled_from([f.name for f in dataclasses.fields(CostTable)]),
           value=_BAD_COSTS)
    def test_cost_table_rejects_a_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            CostTable(**{field: value})

    @given(field=st.sampled_from(
        [f.name for f in dataclasses.fields(DriverProfile)]), value=_BAD_COSTS)
    def test_driver_profile_rejects_a_bad_field(self, field, value):
        costs = {"fixed_tx": 1.0, "fixed_rx": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            DriverProfile(**costs)

    def test_scaled_by_a_negative_factor_raises(self):
        with pytest.raises(ValueError, match="CostTable"):
            ALPHA_21064.scaled(-1)
        with pytest.raises(ValueError):
            ALPHA_21064.scaled(float("nan"))

    def test_zero_costs_construct(self):
        """Zero is a cost (a free operation); only the sign, NaN and
        infinity are rejected."""
        assert ALPHA_21064.scaled(0.0).interrupt_entry == 0.0
        assert DriverProfile(fixed_tx=0.0, fixed_rx=0.0,
                             rx_latency_us=0.0).rx_latency_us == 0.0


class TestCalibrationAnchors:
    """Relationships the paper's narrative depends on, as facts of the
    table -- if someone edits a constant and breaks these, the headline
    results will drift in ways the golden checks explain."""

    def test_boundary_crossing_dwarfs_procedure_call(self):
        """The whole thesis: a trap + copy path costs orders of magnitude
        more than an in-kernel procedure call."""
        assert ALPHA_21064.syscall_trap > 10 * ALPHA_21064.procedure_call

    def test_dispatch_is_procedure_call_scale(self):
        """'The overhead of invoking each handler is roughly one
        procedure call.'"""
        ratio = ALPHA_21064.dispatch_per_handler / ALPHA_21064.procedure_call
        assert 1.0 <= ratio <= 3.0

    def test_context_switch_dominates_thread_spawn(self):
        assert ALPHA_21064.context_switch > ALPHA_21064.thread_spawn

    def test_framebuffer_is_order_of_magnitude_slower_than_ram(self):
        """Paper sec. 5.1: 'a factor of 10 times slower'."""
        ratio = (ALPHA_21064.framebuffer_write_per_byte /
                 ALPHA_21064.copy_per_byte)
        assert ratio >= 10

    def test_interrupt_entry_cheaper_than_context_switch(self):
        """Why interrupt-level handlers win over thread delivery."""
        assert ALPHA_21064.interrupt_entry + ALPHA_21064.interrupt_exit < \
            ALPHA_21064.thread_spawn + ALPHA_21064.process_wakeup

    def test_checksum_cheaper_than_copy(self):
        """A checksum pass reads; a copy reads and writes."""
        assert ALPHA_21064.checksum_per_byte <= ALPHA_21064.copy_per_byte * 1.5
