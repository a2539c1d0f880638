"""Figure 6: video server CPU utilization vs number of client streams.

"Figure 6 shows the processor utilization on the server as a function of
the number of client streams for our video system running over the T3
network.  At 15 streams, both SPIN and DIGITAL UNIX saturate the network,
but SPIN consumes only half as much of the processor."

Plus the section 5.1 *client* observation: both systems show similar
client CPU because >90% of the client's time goes to framebuffer writes.
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.video import (
    DEFAULT_FRAME_BYTES,
    SpinVideoClient,
    SpinVideoServer,
    UnixVideoClient,
    UnixVideoServer,
    VIDEO_FPS,
    VIDEO_PORT_BASE,
    display_fraction,
)
from ..core.extension import AppExtension
from ..core.manager import Credential, discard_datagram
from ..hw.alpha import MICROSECONDS_PER_SECOND
from .testbed import build_testbed

__all__ = [
    "measure_video_server",
    "figure6",
    "measure_video_client",
    "SATURATION_STREAMS",
]

#: 3 Mb/s per stream on a 45 Mb/s T3.
SATURATION_STREAMS = 15


def measure_video_server(os_name: str, streams: int,
                         duration_s: float = 0.8,
                         frame_bytes: int = DEFAULT_FRAME_BYTES) -> Dict:
    """Run ``streams`` concurrent streams; return server CPU utilization.

    The warm-up period (the first 20% of frames) is excluded from the
    utilization sample.
    """
    bed = build_testbed(os_name, "t3")
    engine = bed.engine
    server_host = bed.hosts[0]
    frames = max(6, int(duration_s * VIDEO_FPS))

    # The client host sinks everything cheaply; its CPU is not the subject.
    if os_name == "spin":
        bed.stacks[1].udp_manager.bind(
            Credential("video-sink"), VIDEO_PORT_BASE, discard_datagram,
            time_limit=500.0)
        server = AppExtension.link(SpinVideoServer, bed.hosts[0], bed.stacks[0].app_domain,
                                   frame_bytes=frame_bytes).state
    else:
        sink_layer = bed.sockets[1]

        def sink_proc():
            sock = sink_layer.udp_socket()
            yield from sock.bind(VIDEO_PORT_BASE)
            while True:
                yield from sock.recvfrom()
        engine.process(sink_proc(), name="video-sink")
        server = UnixVideoServer(bed.sockets[0], frame_bytes=frame_bytes)

    for _ in range(streams):
        server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames)

    warmup_us = frames * 0.2 * (1e6 / VIDEO_FPS)
    engine.run(until=engine.now + warmup_us)
    busy0, t0 = server_host.cpu.sample()
    rx0 = bed.nics[1].rx_bytes
    measure_us = frames * 0.7 * (1e6 / VIDEO_FPS)
    engine.run(until=engine.now + measure_us)
    utilization = server_host.cpu.utilization_since(busy0, t0)
    delivered_mbps = ((bed.nics[1].rx_bytes - rx0) * 8.0 /
                      measure_us * MICROSECONDS_PER_SECOND / 1e6)
    return {
        "os": os_name,
        "streams": streams,
        "utilization": utilization,
        "offered_mbps": streams * frame_bytes * 8 * VIDEO_FPS / 1e6,
        "delivered_mbps": delivered_mbps,
        "deadline_misses": server.stats.deadline_misses,
        "frames_sent": server.stats.frames_sent,
    }


def figure6(stream_counts=(1, 3, 5, 8, 10, 12, 15, 18, 21, 25, 30),
            duration_s: float = 0.6) -> List[Dict]:
    """Regenerate Figure 6: utilization curves for both systems."""
    rows: List[Dict] = []
    for streams in stream_counts:
        for os_name in ("spin", "unix"):
            rows.append(measure_video_server(os_name, streams, duration_s))
    return rows


def measure_video_client(os_name: str, duration_s: float = 0.8,
                         frame_bytes: int = DEFAULT_FRAME_BYTES) -> Dict:
    """Section 5.1 client experiment: one stream into a displaying client.

    Returns the client's CPU utilization and the fraction of its work that
    is framebuffer writes (the paper: >90%).
    """
    bed = build_testbed(os_name, "t3")
    engine = bed.engine
    client_host = bed.hosts[1]
    frames = max(6, int(duration_s * VIDEO_FPS))

    if os_name == "spin":
        client = AppExtension.link(SpinVideoClient, bed.hosts[1], bed.stacks[1].app_domain,
                                   frame_bytes=frame_bytes).state
        server = AppExtension.link(SpinVideoServer, bed.hosts[0], bed.stacks[0].app_domain,
                                   frame_bytes=frame_bytes).state
    else:
        client = UnixVideoClient(bed.sockets[1], frame_bytes=frame_bytes)
        server = UnixVideoServer(bed.sockets[0], frame_bytes=frame_bytes)
    server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames)

    warmup_us = frames * 0.2 * (1e6 / VIDEO_FPS)
    engine.run(until=engine.now + warmup_us)
    busy0, t0 = client_host.cpu.sample()
    engine.run(until=engine.now + frames * 0.7 * (1e6 / VIDEO_FPS))
    return {
        "os": os_name,
        "utilization": client_host.cpu.utilization_since(busy0, t0),
        "display_fraction": display_fraction(client_host.cpu),
        "frames_displayed": client.frames_displayed,
    }
