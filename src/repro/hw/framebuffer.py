"""SFB framebuffer model (paper section 5.1, "The client").

The paper's key observation about the video client is that writing to the
framebuffer is about 10x slower than writing to RAM and dominates the
client's CPU time (>90%), which is why the in-kernel client shows little
advantage over the user-level one *for this workload*.  The model is a
pure CPU cost: displaying N bytes charges ``framebuffer_write_per_byte``
in the ``display`` category, so the utilization decomposition of section
5.1 can be measured directly.
"""

from __future__ import annotations

from .host import Host

__all__ = ["Framebuffer"]


class Framebuffer:
    """A display device written with programmed stores."""

    def __init__(self, host: Host):
        self.host = host
        self.bytes_written = 0
        self.frames_displayed = 0

    def write(self, nbytes: int) -> None:
        """Write ``nbytes`` of pixels (plain code; charges CPU)."""
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        self.host.cpu.charge(
            nbytes * self.host.costs.framebuffer_write_per_byte, "display")
        self.bytes_written += nbytes

    def display_frame(self, frame_bytes: int) -> None:
        """Display one decompressed video frame."""
        self.write(frame_bytes)
        self.frames_displayed += 1
