#!/usr/bin/env python3
"""The network video system of paper section 5.1.

A video server streams 30 fps video over the 45 Mb/s DEC T3 link to a
displaying client, on both operating-system models, and reports:

* server CPU utilization as streams are added (Figure 6's curves),
* the saturation point where the T3 fills (15 streams at 3 Mb/s each),
* the client-side decomposition showing framebuffer writes dominating.

Run:  python examples/video_streaming.py
"""

from repro.apps.video import (
    VIDEO_PORT_BASE,
    SpinVideoClient,
    SpinVideoServer,
    display_fraction,
)
from repro.bench import build_testbed
from repro.core import AppExtension
from repro.bench.video import measure_video_client, measure_video_server


def stream_one_clip() -> None:
    """A single stream, end to end, with full accounting."""
    bed = build_testbed("spin", "t3")
    client = AppExtension.link(SpinVideoClient, bed.hosts[1],
                               bed.stacks[1].app_domain).state
    server = AppExtension.link(SpinVideoServer, bed.hosts[0],
                               bed.stacks[0].app_domain).state
    seconds = 0.5
    frames = int(seconds * server.fps)
    server.add_stream(bed.ip(1), VIDEO_PORT_BASE, frames=frames)
    bed.engine.run(until=seconds * 1.2e6)

    print("one %d-frame clip over T3 (in-kernel server and client):"
          % frames)
    print("  frames sent/displayed: %d/%d, deadline misses: %d"
          % (server.stats.frames_sent, client.frames_displayed,
             server.stats.deadline_misses))
    print("  client display share of app work: %.0f%%  (paper: >90%%)"
          % (display_fraction(bed.hosts[1].cpu) * 100))


def utilization_curves() -> None:
    """Figure 6: server CPU vs streams for both systems."""
    print("\nserver CPU utilization vs streams (Figure 6):")
    print("  %8s  %12s  %12s  %10s" % ("streams", "SPIN", "DIGITAL-UNIX",
                                       "delivered"))
    for streams in (1, 5, 10, 15, 20):
        spin = measure_video_server("spin", streams, duration_s=0.3)
        unix = measure_video_server("unix", streams, duration_s=0.3)
        print("  %8d  %11.1f%%  %11.1f%%  %7.1f Mb/s"
              % (streams, spin["utilization"] * 100,
                 unix["utilization"] * 100, spin["delivered_mbps"]))
    print("  (the T3 saturates at 15 streams; SPIN uses ~half the CPU)")


def client_comparison() -> None:
    print("\nvideo client (one stream), both systems:")
    for os_name in ("spin", "unix"):
        r = measure_video_client(os_name, duration_s=0.3)
        print("  %-5s client: %.1f%% CPU, %.0f%% of app work is display"
              % (os_name, r["utilization"] * 100,
                 r["display_fraction"] * 100))
    print("  (similar, because the framebuffer dominates -- paper sec. 5.1)")


def main() -> None:
    stream_one_clip()
    utilization_curves()
    client_comparison()


if __name__ == "__main__":
    main()
