"""Disk model for the video server (paper section 5.1).

The video server "reads video frame-by-frame off of the disk using SPIN's
file system interface".  The model charges a per-request setup cost plus a
per-byte transfer cost (category ``disk``), and the read itself takes
media time off-CPU (the controller DMAs while the CPU is free), which is
what lets the in-kernel server overlap disk reads with transmission.
Reads are served one at a time, in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator

from ..sim import Event
from .host import Host

__all__ = ["Disk"]


class Disk:
    """A simple fixed-rate disk with DMA transfer."""

    def __init__(self, host: Host, media_rate_bps: float = 800e6,
                 access_latency_us: float = 120.0):
        self.host = host
        self.media_rate_bps = media_rate_bps
        self.access_latency_us = access_latency_us
        self.bytes_read = 0
        self.reads = 0
        self._busy = False
        self._waiting: Deque[Event] = deque()

    def read_charges(self, nbytes: int) -> None:
        """CPU-side cost of issuing and completing one read (plain code)."""
        costs = self.host.costs
        self.host.cpu.charge(costs.disk_read_setup, "disk")
        self.host.cpu.charge(nbytes * costs.disk_read_per_byte, "disk")

    def media_time_us(self, nbytes: int) -> float:
        """Off-CPU media + seek time for one sequential read."""
        return self.access_latency_us + nbytes * 8.0 / self.media_rate_bps * 1e6

    def read(self, nbytes: int) -> Generator:
        """Full read as a simulation generator: CPU charges + media time.

        The caller is a simulation process; yields cover the media time,
        the CPU cost is charged into the caller's open accumulator before
        the yield (issue) so ordering is issue-cost -> media -> data.
        A read that finds the media busy waits for the one ahead of it.
        """
        if nbytes <= 0:
            raise ValueError("read size must be positive")
        self.reads += 1
        self.bytes_read += nbytes
        engine = self.host.engine
        if self._busy:
            turn = engine.event()
            self._waiting.append(turn)
            yield turn
        else:
            self._busy = True
        yield engine.timeout(self.media_time_us(nbytes))
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._busy = False
        return bytes(nbytes)
