"""The network video system (paper section 5.1).

"A server that multicasts video clips to a set of clients.  The server
consists of one extension that reads video frame-by-frame off of the disk
... Because the video server extension is co-located with the kernel, it
does not have to copy the data across the user/kernel boundary."

The workload: 30 frames/second per stream, one stream per client.  With
the frame size used here each stream is 3 Mb/s, so 15 streams saturate
the 45 Mb/s T3 -- exactly the saturation point of Figure 6.

Four pieces:

* :class:`SpinVideoServer` -- the in-kernel extension server, linked
  against a host's app domain: disk read
  (DMA, off-CPU) -> UDP sends, zero boundary copies.  The video protocol
  is application-specific UDP *without* checksums (section 1.1).
* :class:`UnixVideoServer` -- the same service as a user process: every
  frame is copied out of the kernel by ``read()`` and copied back in by
  ``sendto()``, with traps and scheduling around both.
* :class:`SpinVideoClient` / :class:`UnixVideoClient` -- checksum the
  frame, decompress (a second pass, expanding 1:2), and write to the
  framebuffer, whose 10x-slow writes dominate (>90%) and equalize the two
  systems (the paper's explanation for the similar client numbers).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List

from ..core.manager import Credential, discard_datagram
from ..hw.disk import Disk
from ..hw.framebuffer import Framebuffer
from ..unixos.sockets import SocketLayer

__all__ = [
    "VIDEO_FPS",
    "DEFAULT_FRAME_BYTES",
    "SpinVideoServer",
    "UnixVideoServer",
    "SpinVideoClient",
    "UnixVideoClient",
    "display_fraction",
]

VIDEO_FPS = 30
#: 12.5 KB/frame * 30 fps = 3 Mb/s per stream; 15 streams fill a 45 Mb/s T3.
DEFAULT_FRAME_BYTES = 12_500
VIDEO_PORT_BASE = 5004
DECOMPRESS_RATIO = 2  # decoded frames are twice the wire size


def _segments(frame_bytes: int, max_payload: int) -> List[int]:
    """Split a frame into datagram payload sizes."""
    sizes = []
    remaining = frame_bytes
    while remaining > 0:
        take = min(remaining, max_payload)
        sizes.append(take)
        remaining -= take
    return sizes


class _ServerStats:
    def __init__(self):
        self.frames_sent = 0
        self.bytes_sent = 0
        self.deadline_misses = 0


class SpinVideoServer:
    """The in-kernel video server extension (app domain)."""

    NAME = "video-server"
    IMPORTS = ["UDP.Bind", "Link.MTU", "Kernel.Path", "Kernel.Start",
               "Kernel.Now", "Kernel.Timeout", "Disk.ReadCharges", "Disk.Read"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 frame_bytes: int = DEFAULT_FRAME_BYTES, fps: int = VIDEO_FPS):
        self._path = env["Kernel.Path"]
        self._start = env["Kernel.Start"]
        self._now = env["Kernel.Now"]
        self._timeout = env["Kernel.Timeout"]
        self._read_charges = env["Disk.ReadCharges"]
        self._read = env["Disk.Read"]
        self.frame_bytes = frame_bytes
        self.fps = fps
        self.interval_us = 1e6 / fps
        self.stats = _ServerStats()
        self._streams: List = []
        # One sending endpoint; the video protocol disables UDP checksums.
        self._endpoint = env["UDP.Bind"](credential, VIDEO_PORT_BASE - 1, discard_datagram,
                                         checksum=False)
        max_payload = env["Link.MTU"] - 28  # IP + UDP headers
        self._segment_sizes = _segments(frame_bytes, max_payload)

    def uninstall(self) -> None:  # streams under way stop sending
        self._endpoint.close()

    def add_stream(self, client_ip: int, client_port: int,
                   frames: int) -> None:
        """Start one 30 fps stream of ``frames`` frames to a client."""
        process = self._start(self._stream(client_ip, client_port, frames),
                              name="video-stream-%d" % len(self._streams))
        self._streams.append(process)

    def _stream(self, client_ip: int, client_port: int,
                frames: int) -> Generator:
        now = self._now
        deadline = now()
        for _ in range(frames):
            deadline += self.interval_us
            # Read the frame from disk through the FS interface: CPU issue
            # cost in a kernel path, media time off-CPU.
            yield from self._path(lambda: self._read_charges(self.frame_bytes))
            yield from self._read(self.frame_bytes)
            # Send the frame: in-kernel, straight from the buffer cache to
            # the wire -- no boundary copies.
            def send_frame():
                for size in self._segment_sizes:
                    self._endpoint.send(bytes(size), client_ip, client_port)
            yield from self._path(send_frame)
            self.stats.frames_sent += 1
            self.stats.bytes_sent += self.frame_bytes
            if now() > deadline:
                self.stats.deadline_misses += 1
            else:
                yield self._timeout(deadline - now())


class UnixVideoServer:
    """The same service as a user-level process per stream."""

    def __init__(self, sockets: SocketLayer,
                 frame_bytes: int = DEFAULT_FRAME_BYTES, fps: int = VIDEO_FPS):
        self.sockets = sockets
        self.host = sockets.host
        self.disk = Disk(self.host)
        self.frame_bytes = frame_bytes
        self.fps = fps
        self.interval_us = 1e6 / fps
        self.stats = _ServerStats()
        self._streams: List = []
        max_payload = self.sockets.mtu - 28
        self._segment_sizes = _segments(frame_bytes, max_payload)

    def add_stream(self, client_ip: int, client_port: int,
                   frames: int) -> None:
        process = self.host.engine.process(
            self._stream(client_ip, client_port, frames),
            name="uvideo-stream-%d" % len(self._streams))
        self._streams.append(process)

    def _stream(self, client_ip: int, client_port: int,
                frames: int) -> Generator:
        sock = self.sockets.udp_socket()
        yield from sock.bind()
        costs = self.host.costs
        deadline = self.host.engine.now
        for _ in range(frames):
            deadline += self.interval_us
            # read(): trap + FS work + *copyout* of the whole frame, and a
            # block on the media with wakeup + context switch.
            def read_entry():
                self.host.cpu.charge(costs.syscall_trap, "syscall")
                self.disk.read_charges(self.frame_bytes)
            yield from self.host.kernel_path(read_entry)
            yield from self.disk.read(self.frame_bytes)

            def read_exit():
                self.host.cpu.charge(costs.process_wakeup, "sched")
                self.host.cpu.charge(costs.context_switch, "sched")
                self.host.cpu.charge(
                    self.frame_bytes * costs.copy_per_byte, "copyout")
            yield from self.host.kernel_path(read_exit)
            # sendto() per packet: trap + socket + *copyin*.
            for size in self._segment_sizes:
                yield from sock.sendto(bytes(size), (client_ip, client_port),
                                       checksum=False)
            self.stats.frames_sent += 1
            self.stats.bytes_sent += self.frame_bytes
            if self.host.engine.now > deadline:
                self.stats.deadline_misses += 1
            else:
                yield self.host.engine.timeout(deadline - self.host.engine.now)


class _ClientCore:
    """The shared viewer code (the paper uses the same code on both OSes)."""

    def __init__(self, charge: Callable[[float, str], None], costs,
                 display: Callable[[int], None], frame_bytes: int):
        self._charge = charge
        self._costs = costs
        self._display = display
        self.frame_bytes = frame_bytes
        self.frames_displayed = 0
        self._pending = 0

    def consume(self, nbytes: int) -> None:
        """Account one datagram; display when a whole frame is in."""
        self._pending += nbytes
        if self._pending >= self.frame_bytes:
            self._pending -= self.frame_bytes
            self.display_frame()

    def display_frame(self) -> None:
        costs = self._costs
        # Pass 1: checksum the frame data (the viewer's own tight loop).
        self._charge(self.frame_bytes * costs.ram_write_per_byte, "app-checksum")
        # Pass 2: decompress (reads the frame, writes 2x to RAM).
        self._charge(
            self.frame_bytes * (1 + DECOMPRESS_RATIO) * costs.ram_write_per_byte,
            "app-decompress")
        # Display: write the decoded frame to the framebuffer (10x RAM).
        self._display(self.frame_bytes * DECOMPRESS_RATIO)
        self.frames_displayed += 1


def display_fraction(cpu) -> float:
    """Fraction of a client host's viewer work spent writing the display."""
    times = cpu.category_times
    app = times["app-checksum"] + times["app-decompress"] + times["display"]
    if app == 0:
        return 0.0
    return times["display"] / app


class SpinVideoClient(_ClientCore):
    """In-kernel client extension (app domain): packets go straight to the viewer."""

    NAME = "video-client"
    IMPORTS = ["UDP.Bind", "Kernel.Charge", "Kernel.Costs",
               "Framebuffer.Display"]

    def __init__(self, env: Dict[str, Any], credential: Credential,
                 port: int = VIDEO_PORT_BASE,
                 frame_bytes: int = DEFAULT_FRAME_BYTES):
        super().__init__(env["Kernel.Charge"], env["Kernel.Costs"],
                         env["Framebuffer.Display"], frame_bytes)
        core = self

        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            core.consume(m.length() - off)
        # Display work is far too heavy for an interrupt handler: the
        # viewer runs in thread mode (see paper sec. 5.1 discussion).
        self.endpoint = env["UDP.Bind"](credential, port, handler, mode="thread")

    def uninstall(self) -> None:
        self.endpoint.close()


class UnixVideoClient(_ClientCore):
    """User-level client: a process looping recvfrom -> viewer."""

    def __init__(self, sockets: SocketLayer, port: int = VIDEO_PORT_BASE,
                 frame_bytes: int = DEFAULT_FRAME_BYTES):
        host = sockets.host
        super().__init__(host.cpu.charge, host.costs,
                         Framebuffer(host).display_frame, frame_bytes)
        self.host = host
        self.sockets = sockets
        self.port = port
        self.host.engine.process(self._loop(), name="uvideo-client")

    def _loop(self) -> Generator:
        sock = self.sockets.udp_socket()
        yield from sock.bind(self.port)
        core = self
        while True:
            data, _addr = yield from sock.recvfrom()
            yield from self.host.kernel_path(lambda n=len(data): core.consume(n))
