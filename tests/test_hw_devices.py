"""Tests for the disk and framebuffer device models."""

import pytest

from repro.bench.testbed import RawEchoHost
from repro.hw import Disk, Framebuffer


@pytest.fixture
def host(engine):
    return RawEchoHost(engine, "dev-host", echo=False)


class TestDisk:
    def test_read_returns_bytes_after_media_time(self, engine, host):
        disk = Disk(host)

        def proc():
            data = yield from disk.read(10_000)
            return data, engine.now
        data, when = engine.run_process(proc())
        assert len(data) == 10_000
        assert when == pytest.approx(disk.media_time_us(10_000))

    def test_media_time_scales_with_size(self, host):
        disk = Disk(host)
        assert disk.media_time_us(20_000) > disk.media_time_us(10_000)

    def test_reads_serialize_on_media(self, engine, host):
        disk = Disk(host)
        finishes = []

        def reader():
            yield from disk.read(10_000)
            finishes.append(engine.now)
        engine.process(reader())
        engine.process(reader())
        engine.run()
        one = disk.media_time_us(10_000)
        assert finishes == [one, one + one]

    def test_read_charges_cpu(self, host):
        disk = Disk(host)
        marker = host.cpu.begin()
        disk.read_charges(12_500)
        cost = host.cpu.end(marker)
        expected = (host.costs.disk_read_setup +
                    12_500 * host.costs.disk_read_per_byte)
        assert cost == pytest.approx(expected)

    def test_zero_read_rejected(self, engine, host):
        disk = Disk(host)

        def proc():
            yield from disk.read(0)
        with pytest.raises(ValueError):
            engine.run_process(proc())

    def test_counters(self, engine, host):
        disk = Disk(host)

        def proc():
            yield from disk.read(100)
        engine.run_process(proc())
        assert disk.reads == 1
        assert disk.bytes_read == 100


class TestFramebuffer:
    def test_write_charges_slow_path(self, host):
        fb = Framebuffer(host)
        marker = host.cpu.begin()
        fb.write(10_000)
        cost = host.cpu.end(marker)
        assert cost == pytest.approx(
            10_000 * host.costs.framebuffer_write_per_byte)

    def test_framebuffer_is_much_slower_than_ram(self, host):
        """The paper: 'a factor of 10 times slower than standard RAM'."""
        ratio = (host.costs.framebuffer_write_per_byte /
                 host.costs.copy_per_byte)
        assert ratio >= 10

    def test_display_frame_counts(self, host):
        fb = Framebuffer(host)
        host.cpu.begin()
        fb.display_frame(25_000)
        assert fb.frames_displayed == 1
        assert fb.bytes_written == 25_000

    def test_negative_write_rejected(self, host):
        fb = Framebuffer(host)
        with pytest.raises(ValueError):
            fb.write(-1)
