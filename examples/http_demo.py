#!/usr/bin/env python3
"""HTTP over the extensible stack -- the paper's closing demo.

"A demonstration of the protocol stack as it services HTTP requests can
be found at http://www-spin.cs.washington.edu."  This example serves that
site's spiritual successor from an in-kernel extension and fetches pages
over real (simulated) TCP, then repeats the exercise on the monolithic
model for comparison.

Run:  python examples/http_demo.py
"""

from repro.apps.httpd import (
    SpinHttpClient,
    SpinHttpServer,
    UnixHttpServer,
    unix_http_get,
)
from repro.bench import build_testbed
from repro.core import AppExtension

PAGES = {
    "/": b"<html><h1>SPIN / Plexus</h1>"
         b"<p>An extensible protocol architecture.</p></html>",
    "/paper": b"Fiuczynski & Bershad, USENIX 1996. " * 40,
    "/source": b"MODULE ActiveMessages; IMPORT Mbuf, Ethernet; ..." * 20,
}


def spin_demo() -> None:
    bed = build_testbed("spin", "ethernet")
    engine = bed.engine
    server = AppExtension.link(SpinHttpServer, bed.hosts[1],
                               bed.stacks[1].app_domain, PAGES,
                               port=8088).state
    client = AppExtension.link(SpinHttpClient, bed.hosts[0],
                               bed.stacks[0].app_domain, bed.ip(1),
                               port=8088).state

    print("in-kernel HTTP server (Plexus):")
    for path in ("/", "/paper", "/missing"):
        start = engine.now
        status, body = engine.run_process(client.fetch(path))
        print("  GET %-9s -> %d, %5d bytes, %7.1f us"
              % (path, status, len(body), engine.now - start))
    print("  requests served in the kernel: %d" % server.requests_served)


def unix_demo() -> None:
    bed = build_testbed("unix", "ethernet")
    engine = bed.engine
    server = UnixHttpServer(bed.sockets[1], PAGES, port=8088)

    print("\nuser-level HTTP daemon (monolithic model):")
    for path in ("/", "/paper"):
        start = engine.now
        status, body = engine.run_process(
            unix_http_get(bed.sockets[0], bed.ip(1), path, port=8088))
        print("  GET %-9s -> %d, %5d bytes, %7.1f us"
              % (path, status, len(body), engine.now - start))
    print("  requests served: %d" % server.requests_served)


def main() -> None:
    spin_demo()
    unix_demo()


if __name__ == "__main__":
    main()
