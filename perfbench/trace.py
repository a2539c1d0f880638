"""Per-layer attribution of interpreter work, from outside ``src/``.

Two passes over one workload rep, both deterministic:

* :class:`OpcodeCounter` counts every Python bytecode executed
  (``sys.settrace`` with ``f_trace_opcodes``) per code object.  The
  totals repeat bit for bit across runs and ``PYTHONHASHSEED`` values,
  which host time on a shared two-core sandbox does not.
* :class:`Profile` runs the rep under ``cProfile`` and folds call counts
  and self time by the layer that owns the callee; a C builtin belongs
  to the layer that called it.

A layer is one of the repo's modules (:data:`LAYERS`), named from the
file a code object was compiled from.
"""

from __future__ import annotations

import cProfile
import os
import sys
from typing import Callable, Dict, Tuple

#: ``repro`` sub-packages that are a layer under their own name
_PACKAGES = ("sim", "hw", "spin", "lang", "core", "unixos", "fabric", "obs",
             "apps")
_NET_MODULES = {"ethernet.py": "net.ethernet", "ip.py": "net.ip",
                "udp.py": "net.udp", "checksum.py": "net.checksum"}

LAYERS = _PACKAGES + ("net.ethernet", "net.ip", "net.udp", "net.tcp",
                      "net.checksum", "net.other", "generated", "stdlib",
                      "harness")

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep

#: the functions that *are* the seams between layers:
#: metric -> (file suffix, function names)
BOUNDARIES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "spin.raise_calls_per_op": ("repro/spin/dispatcher.py",
                                ("raise_event", "raise_flow")),
    "hw.stage_tx_calls_per_op": ("repro/hw/nic.py", ("stage_tx",)),
    "hw.frame_on_wire_calls_per_op": ("repro/hw/nic.py", ("frame_on_wire",)),
    "net.checksum.entry_calls_per_op": ("repro/net/checksum.py",
                                  ("internet_checksum", "verify_checksum")),
    "lang.view_calls_per_op": ("repro/lang/view.py", ("VIEW",)),
    "fabric.lookup_calls_per_op": ("repro/fabric/table.py", ("lookup",)),
    "spin.mbuf_alloc_calls_per_op": ("repro/spin/mbuf.py", ("_charge_alloc",)),
}


def layer_of(filename: str) -> str:
    """The layer that owns code compiled from ``filename``."""
    if filename.startswith("<"):
        # exec-compiled delivery paths carry a "<codegen:...>" pseudo
        # file; the interpreter's own pseudo files are the stdlib's.
        if filename.startswith(("<frozen", "<string>", "<__array_function__")):
            return "stdlib"
        return "generated"
    if filename.startswith(_HERE):
        return "harness"
    at = filename.rfind(_REPRO)
    if at < 0:
        return "stdlib"
    parts = filename[at + len(_REPRO):].split(os.sep)
    if parts[0] in _PACKAGES:
        return parts[0]
    if parts[0] == "net":
        if parts[1] == "tcp":
            return "net.tcp"
        return _NET_MODULES.get(parts[1], "net.other")
    return "harness"        # repro.bench: the testbed assembly


class OpcodeCounter:
    """Counts executed bytecodes per code object."""

    def __init__(self) -> None:
        self.by_code: Dict[object, int] = {}

    def runcall(self, fn: Callable[[], None]) -> None:
        by_code = self.by_code

        def local(frame, event, arg):
            if event == "opcode":
                code = frame.f_code
                try:
                    by_code[code] += 1
                except KeyError:
                    by_code[code] = 1
            return local

        def on_call(frame, event, arg):
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            return local

        sys.settrace(on_call)
        try:
            fn()
        finally:
            sys.settrace(None)

    @property
    def total(self) -> int:
        return sum(self.by_code.values())

    def by_layer(self) -> Dict[str, int]:
        folded = dict.fromkeys(LAYERS, 0)
        for code, count in self.by_code.items():
            folded[layer_of(code.co_filename)] += count
        return folded


class Profile:
    """Call counts and self time of one profiled rep, folded by layer."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.boundary_calls = dict.fromkeys(BOUNDARIES, 0)
        self.total_calls = 0

    def runcall(self, fn: Callable[[], None]) -> None:
        profiler = cProfile.Profile()
        profiler.runcall(fn)
        self._fold(profiler.getstats())

    def _fold(self, stats) -> None:
        by_caller: Dict[str, list] = {}     # builtin -> [calls, self seconds]
        for entry in stats:
            self.total_calls += entry.callcount
            code = entry.code
            if isinstance(code, str):
                continue        # a C builtin: folded below, by its caller
            layer = layer_of(code.co_filename)
            self.calls[layer] += entry.callcount
            self.self_s[layer] += entry.inlinetime
            for metric, (suffix, names) in BOUNDARIES.items():
                if code.co_name in names and code.co_filename.endswith(suffix):
                    self.boundary_calls[metric] += entry.callcount
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    self.calls[layer] += sub.callcount
                    self.self_s[layer] += sub.inlinetime
                    seen = by_caller.setdefault(sub.code, [0, 0.0])
                    seen[0] += sub.callcount
                    seen[1] += sub.inlinetime
        # Builtins with no Python caller on record (called from another
        # builtin, or by the profiler's own entry) are the harness's.
        for entry in stats:
            if isinstance(entry.code, str):
                calls, seconds = by_caller.get(entry.code, (0, 0.0))
                self.calls["harness"] += entry.callcount - calls
                self.self_s["harness"] += max(0.0, entry.inlinetime - seconds)

    def self_shares(self) -> Dict[str, float]:
        total = sum(self.self_s.values())
        return {layer: (seconds / total if total else 0.0)
                for layer, seconds in self.self_s.items()}
