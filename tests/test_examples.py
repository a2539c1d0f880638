"""Every example must stay runnable: they are deliverables, not décor.

Each example is executed in-process (imported and ``main()`` called) with
stdout captured, and its headline output is sanity-checked.
"""

import collections
import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    spec = importlib.util.spec_from_file_location(
        "example_%s" % name, EXAMPLES_DIR / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    captured = io.StringIO()
    with redirect_stdout(captured):
        spec.loader.exec_module(module)
        module.main()
    return captured.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart")
        assert "Plexus (in-kernel extension)" in out
        assert "speedup" in out

    def test_custom_protocol(self):
        out = run_example("custom_protocol")
        assert "RDP-lite" in out
        assert "checksum disabled" in out

    def test_http_demo(self):
        out = run_example("http_demo")
        assert "in-kernel HTTP server" in out
        assert "-> 200" in out
        assert "-> 404" in out

    def test_routed_network(self):
        out = run_example("routed_network")
        assert "beta saw: hello across subnets" in out
        assert "time exceeded" in out

    def test_tracing_and_faults(self):
        out = run_example("tracing_and_faults")
        assert "retransmissions" in out
        assert "[SYN]" in out

    @pytest.mark.slow
    def test_video_streaming(self):
        out = run_example("video_streaming")
        assert "saturates at 15 streams" in out
        assert "display" in out

    def test_port_forwarder(self):
        out = run_example("port_forwarder")
        assert "end-to-end TCP: True" in out
        assert "end-to-end TCP: False" in out

    def test_port_forwarder_redirects_book_in_place(self):
        """The redirect node is Figure 7's per-packet path: it books its
        two charges in its own frame and copies the IP packet out of the
        store in one slice (50 ``CPU.charge``, 25 ``Mbuf.length`` and 25
        ``Mbuf.to_bytes`` calls over the example's 25 redirects while it
        called them)."""
        redirect = "link_redirect_capability.<locals>.redirect"
        redirects = 0
        callees = collections.Counter()

        def on_event(frame, event, _arg):
            nonlocal redirects
            if event != "call":
                return
            if frame.f_code.co_qualname.endswith(redirect):
                redirects += 1
            elif frame.f_back.f_code.co_qualname.endswith(redirect):
                callees[frame.f_code.co_qualname] += 1
        sys.setprofile(on_event)
        try:
            out = run_example("port_forwarder")
        finally:
            sys.setprofile(None)
        assert redirects == 25
        assert not {"CPU.charge", "Mbuf.length", "Mbuf.to_bytes"} & set(callees)
        assert callees["MbufPool.from_bytes"] == 25
        # Figure 7's outputs are those of the charged calls.
        assert "Plexus in-kernel node    1105.5 us" in out
        assert "user-level splice        2358.6 us" in out

    def test_active_messages_demo(self):
        out = run_example("active_messages_demo")
        assert "totals [5, 15, 42]" in out
        assert "rejected at install" in out
