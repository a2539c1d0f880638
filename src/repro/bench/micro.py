"""Microbenchmarks of the SPIN/Plexus machinery (paper section 2).

* Dispatcher overhead: "the overhead of invoking each handler is roughly
  one procedure call" -- measured by raising an event with N handlers and
  dividing the charged cost.
* Guard evaluation scaling: demultiplex cost as installed extensions grow.
* Runtime adaptation: the cost of installing/removing an extension into a
  running graph (no reboot, no superuser).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.manager import Credential, discard_datagram
from ..sim import Engine
from ..spin.kernel import SpinKernel
from .testbed import build_testbed

__all__ = [
    "dispatcher_overhead_per_handler",
    "guard_demux_cost",
    "extension_install_cost",
]


def dispatcher_overhead_per_handler(handlers: int = 10,
                                    raises: int = 100) -> Dict:
    """Charged dispatch cost per handler invocation vs one procedure call."""
    engine = Engine()
    kernel = SpinKernel(engine, "micro")
    event = kernel.dispatcher.declare("Micro.Event")

    def noop_handler(value):
        pass

    for _ in range(handlers):
        kernel.dispatcher.install(event, noop_handler)

    marker = kernel.cpu.begin()
    for _ in range(raises):
        kernel.dispatcher.raise_event(event, 42)
    total = kernel.cpu.end(marker)
    per_handler = total / (raises * handlers)
    return {
        "per_handler_us": per_handler,
        "procedure_call_us": kernel.costs.procedure_call,
        "ratio_to_procedure_call": per_handler / kernel.costs.procedure_call,
    }


def guard_demux_cost(extension_counts=(1, 4, 16, 64),
                     raises: int = 50) -> List[Dict]:
    """Per-packet demux cost as the number of guarded handlers grows.

    All but one guard reject each packet, so the cost is ``N *
    guard_eval`` plus one handler dispatch -- linear demux, the price of
    the decision-tree structure (a real x-kernel-style comparison point).
    """
    rows: List[Dict] = []
    for count in extension_counts:
        engine = Engine()
        kernel = SpinKernel(engine, "micro")
        event = kernel.dispatcher.declare("Micro.Demux")

        def make_guard(port):
            def guard(pkt_port):
                return pkt_port == port
            return guard

        def handler(pkt_port):
            pass

        for index in range(count):
            kernel.dispatcher.install(event, handler, guard=make_guard(index))

        marker = kernel.cpu.begin()
        for _ in range(raises):
            kernel.dispatcher.raise_event(event, count - 1)  # match the last
        total = kernel.cpu.end(marker)
        rows.append({"extensions": count, "demux_us": total / raises})
    return rows


def extension_install_cost(installs: int = 20) -> Dict:
    """Wall-time (simulated CPU) to install + remove a UDP endpoint into a
    running stack -- the runtime-adaptation property quantified."""
    bed = build_testbed("spin", "ethernet")
    kernel = bed.hosts[0]
    stack = bed.stacks[0]
    credential = Credential("installer")

    marker = kernel.cpu.begin()
    for i in range(installs):
        endpoint = stack.udp_manager.bind(credential, 20_000 + i, discard_datagram)
        endpoint.close()
    total = kernel.cpu.end(marker)
    assert total > 0, "install/uninstall should charge CPU"
    return {
        "install_remove_pairs": installs,
        "per_pair_us": total / installs,
        "edges_after": stack.graph.edge_count(),
    }
