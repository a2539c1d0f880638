"""Tests for the hot-path wall-clock overhaul.

Covers the surfaces the overhaul added or rewrote:

* the word-wise Internet checksum against the per-byte reference oracle
  (RFC 1071 vectors, the int.from_bytes/numpy path boundary, unaligned
  windows, pseudo-header folding via ``initial=``), a no-copy regression
  bound, and numpy loading only for a buffer over the crossover,
* whole-record ``Layout.pack_into``/``unpack_from`` and the scalar
  getter/putter accessors,
* the engine's zero-delay timeouts (once drawn from a recycle pool),
* the dispatcher's cached handler snapshot,
* ``try_charge`` uncontexted-charge accounting.

Simulated-time outputs must be unaffected by any of this; the
byte-identical guards are ``perfbench/expected.json``'s ``sim_fingerprint``
pins and ``benchmarks/latency_baseline.json``.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import VIEW, Layout, UINT16, UINT16_LE
from repro.net.checksum import (
    internet_checksum,
    internet_checksum_reference,
)
from repro.net.headers import (
    ETHERNET_HEADER,
    IP_HEADER,
    UDP_HEADER,
    pseudo_header,
    pseudo_header_sum,
)
from repro.spin import DispatchError


# ---------------------------------------------------------------------------
# checksum: word-wise vs the per-byte oracle
# ---------------------------------------------------------------------------

class TestChecksumAgainstReference:
    # Sizes straddling the int.from_bytes path (<= 1,024 bytes) and the
    # numpy path, with odd-length variants; 511-514 are the old crossover.
    # Above it the numpy pass reads 32-bit words and folds the 0-3 bytes
    # left over in the entry point: every remainder, at the crossover and
    # at a jumbo segment's size.
    BOUNDARY_SIZES = [0, 1, 2, 3, 511, 512, 513, 514,
                      1021, 1022, 1023, 1024, *range(1025, 1032),
                      2047, 2048, 2049, 4096, 4099, *range(9000, 9004)]
    # Unaligned windows: odd starts, both paths, odd and even lengths, and
    # 32-bit words read from 1-3 bytes past a 4-byte boundary.
    WINDOWS = [(1, 7), (3, 20), (1, 1023), (5, 1024), (3, 1025), (1, 2049),
               (7, 9000), *[(start, size) for start in (1, 2, 3)
                            for size in (1026, 1027, 1028, 1029, 9001)]]
    INITIALS = [0, 1, 0xFFFF, 0x1FFFE, 0x3FFFF]

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_boundary_sizes_match_reference(self, size):
        data = bytes((7 * i + 3) & 0xFF for i in range(size))
        assert internet_checksum(data) == internet_checksum_reference(data)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_all_ones_match_reference(self, size):
        data = b"\xff" * size
        assert internet_checksum(data) == internet_checksum_reference(data)

    @pytest.mark.parametrize("start,size", WINDOWS)
    def test_unaligned_memoryview_windows(self, start, size):
        # How a transport hands over its segment: a window of the store.
        storage = bytearray((5 * i + 1) & 0xFF for i in range(start + size + 3))
        window = memoryview(storage)[start:start + size]
        for initial in self.INITIALS:
            assert (internet_checksum(window, initial)
                    == internet_checksum_reference(bytes(window), initial))

    @pytest.mark.parametrize("size", [8, 1023, 1024, 1025, 4099])
    def test_initial_folds_on_both_paths(self, size):
        data = bytes((11 * i + 7) & 0xFF for i in range(size))
        pseudo = pseudo_header_sum(0x0A000001, 0x0A000002, 17, size)
        for initial in self.INITIALS + [pseudo]:
            assert (internet_checksum(data, initial)
                    == internet_checksum_reference(data, initial))
        # A sum that is a nonzero multiple of 0xFFFF folds to 0xFFFF.
        ones = b"\xff" * (size & ~1)
        for initial in self.INITIALS:
            assert (internet_checksum(ones, initial)
                    == internet_checksum_reference(ones, initial))

    def test_rfc1071_worked_example(self):
        # The example sum from RFC 1071 section 3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_initial_folds_like_prepended_bytes(self):
        # Folding the pseudo-header arithmetically (the send/receive paths
        # since the overhaul) must equal summing its bytes (the old code).
        payload = bytes(range(97))  # odd length on purpose
        src, dst, proto, length = 0x0A000001, 0x0A000002, 17, len(payload)
        arithmetic = internet_checksum(
            payload, initial=pseudo_header_sum(src, dst, proto, length))
        concatenated = internet_checksum(
            pseudo_header(src, dst, proto, length) + payload)
        assert arithmetic == concatenated

    @given(st.binary(min_size=0, max_size=5000),
           st.integers(min_value=0, max_value=0x3FFFF))
    @settings(max_examples=120)
    def test_hypothesis_cross_check(self, data, initial):
        assert (internet_checksum(data, initial)
                == internet_checksum_reference(data, initial))

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60)
    def test_pseudo_header_sum_equals_byte_sum(self, src, dst, proto, length):
        assert (internet_checksum(b"", initial=pseudo_header_sum(
                    src, dst, proto, length))
                == internet_checksum(pseudo_header(src, dst, proto, length)))


class TestChecksumZeroCopy:
    def test_large_buffer_does_not_copy(self):
        # The numpy path sums a zero-copy view; a regression to slicing
        # or joining would show up as an allocation peak proportional to
        # the input.
        pytest.importorskip("numpy")
        data = bytes(1024 * 1024)
        expected = internet_checksum_reference(data[:4096])  # warm caches
        assert expected == internet_checksum(data[:4096])
        tracemalloc.start()
        internet_checksum(data)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < len(data) // 4, (
            "checksum of a 1 MiB buffer allocated %d bytes peak" % peak)

    def test_memoryview_input(self):
        storage = bytearray(b"\x12\x34" * 2000)
        view = memoryview(storage)
        assert (internet_checksum(view)
                == internet_checksum_reference(bytes(storage)))


class TestNumpyOnDemand:
    def test_small_packets_never_import_numpy(self):
        # An 8-byte UDP echo (udp_rtt_spin's shape) sums nothing over
        # 1 KB, so numpy stays out of the process; a 2 KB buffer loads it.
        pytest.importorskip("numpy")
        code = textwrap.dedent("""
            import sys
            from repro.bench.workloads import WORKLOADS, run_once
            run_once(WORKLOADS["udp_pingpong"], 20)
            assert "numpy" not in sys.modules, "an 8-byte echo loaded numpy"
            from repro.net.checksum import internet_checksum
            internet_checksum(bytes(2048))
            assert "numpy" in sys.modules, "a 2 KB checksum did not"
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr


# ---------------------------------------------------------------------------
# layout: whole-record struct + scalar accessors
# ---------------------------------------------------------------------------

class TestWholeRecordStruct:
    def test_udp_header_roundtrip(self):
        buf = bytearray(UDP_HEADER.size)
        UDP_HEADER.pack_into(buf, 0, 7001, 7002, 36, 0xBEEF)
        assert UDP_HEADER.unpack_from(buf, 0) == (7001, 7002, 36, 0xBEEF)
        view = VIEW(buf, UDP_HEADER)
        assert (view.src_port, view.dst_port) == (7001, 7002)
        assert (view.length, view.checksum) == (36, 0xBEEF)

    def test_byte_array_fields_pack_as_bytes(self):
        buf = bytearray(ETHERNET_HEADER.size)
        ETHERNET_HEADER.pack_into(buf, 0, b"\x01" * 6, b"\x02" * 6, 0x0800)
        dst, src, ethertype = ETHERNET_HEADER.unpack_from(buf, 0)
        assert (dst, src, ethertype) == (b"\x01" * 6, b"\x02" * 6, 0x0800)

    def test_unpack_at_offset(self):
        buf = bytearray(4) + bytes(IP_HEADER.size)
        fields = IP_HEADER.unpack_from(buf, 4)
        assert len(fields) == len(IP_HEADER.fields)

    def test_mixed_byte_orders_have_no_whole_struct(self):
        mixed = Layout("Mixed.T", [("a", UINT16), ("b", UINT16_LE)])
        assert not hasattr(mixed, "pack_into")
        assert not hasattr(mixed, "unpack_from")

    def test_scalar_putter_matches_view_write(self):
        put, offset = UDP_HEADER.scalar_putter("checksum")
        buf = bytearray(UDP_HEADER.size)
        put(buf, offset, 0xCAFE)
        assert VIEW(buf, UDP_HEADER).checksum == 0xCAFE

    def test_scalar_getter_matches_view_read(self):
        get, offset = ETHERNET_HEADER.scalar_getter("type")
        buf = bytearray(ETHERNET_HEADER.size)
        VIEW(buf, ETHERNET_HEADER).type = 0x0806
        assert get(buf, offset)[0] == 0x0806

    def test_scalar_getter_unknown_field(self):
        with pytest.raises(KeyError):
            UDP_HEADER.scalar_getter("nope")


# ---------------------------------------------------------------------------
# engine: zero-delay timeouts (the recycle pool they came from is gone)
# ---------------------------------------------------------------------------

class TestPooledTimeouts:
    def test_delay_advances_simulated_time(self, engine):
        marks = []

        def proc():
            yield engine.timeout(5.0)
            marks.append(engine.now)
            yield engine.timeout(0.0)
            marks.append(engine.now)

        engine.process(proc())
        engine.run()
        assert marks == [5.0, 5.0]

    def test_zero_delay_events_fire_fifo(self, engine):
        order = []

        def proc(tag):
            yield engine.timeout(0.0)
            order.append(tag)

        for tag in range(5):
            engine.process(proc(tag))
        engine.run()
        assert order == sorted(order)

    def test_zero_delay_interleaves_with_heap_in_time_order(self, engine):
        order = []

        def late():
            yield engine.timeout(1.0)
            order.append("late")

        def immediate():
            yield engine.timeout(0.0)
            order.append("immediate")

        engine.process(late())
        engine.process(immediate())
        engine.run()
        assert order == ["immediate", "late"]


# ---------------------------------------------------------------------------
# dispatcher: cached handler snapshot
# ---------------------------------------------------------------------------

class TestDispatcherSnapshot:
    def test_install_during_raise_deferred_to_next_raise(self, kernel):
        dispatcher = kernel.dispatcher
        event = dispatcher.declare("Snap")
        seen = []

        def second(tag):
            seen.append(("second", tag))

        def first(tag):
            seen.append(("first", tag))
            if tag == 0:
                dispatcher.install(event, second)

        dispatcher.install(event, first)
        marker = kernel.cpu.begin()
        assert dispatcher.raise_event(event, 0) == 1
        assert dispatcher.raise_event(event, 1) == 2
        kernel.cpu.end(marker)
        assert seen == [("first", 0), ("first", 1), ("second", 1)]

    def test_uninstall_mid_raise_skips_handler(self, kernel):
        dispatcher = kernel.dispatcher
        event = dispatcher.declare("Snap2")
        seen = []

        handles = {}

        def first(tag):
            seen.append("first")
            handles["second"].uninstall()

        def second(tag):
            seen.append("second")

        dispatcher.install(event, first)
        handles["second"] = dispatcher.install(event, second)
        marker = kernel.cpu.begin()
        matched = dispatcher.raise_event(event, 0)
        kernel.cpu.end(marker)
        assert matched == 1
        assert seen == ["first"]

    def test_raise_requires_event_capability(self, kernel):
        with pytest.raises(DispatchError):
            kernel.dispatcher.raise_event("not-an-event")


# ---------------------------------------------------------------------------
# cpu: uncontexted control-plane charges
# ---------------------------------------------------------------------------

class TestTryCharge:
    def test_uninstall_outside_context_counts_uncontexted(self, kernel):
        event = kernel.dispatcher.declare("X")
        handle = kernel.dispatcher.install(event, lambda: None)
        before = kernel.cpu.uncontexted_charges
        before_us = kernel.cpu.uncontexted_charge_us
        handle.uninstall()
        assert kernel.cpu.uncontexted_charges == before + 1
        assert (kernel.cpu.uncontexted_charge_us
                == pytest.approx(before_us + kernel.costs.handler_uninstall))

    def test_uninstall_inside_context_charges_accumulator(self, kernel):
        event = kernel.dispatcher.declare("Y")
        handle = kernel.dispatcher.install(event, lambda: None)
        marker = kernel.cpu.begin()
        handle.uninstall()
        charged = kernel.cpu.end(marker)
        assert charged == pytest.approx(kernel.costs.handler_uninstall)
