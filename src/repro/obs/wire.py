"""Wiring: register every component of a testbed on one registry.

Each component owns a cold-path ``register_metrics(registry)`` method
that publishes its ad-hoc counters as callback sources under the dotted
namespace in :mod:`repro.obs.schema`.  :func:`instrument_testbed` walks
a :class:`repro.bench.testbed.Testbed` (or anything shaped like one)
and calls them all; per-host instances aggregate because
:meth:`~repro.obs.registry.MetricsRegistry.source` sums repeated
registrations of one name.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry

__all__ = ["instrument_testbed"]


def instrument_testbed(bed, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register engine, hosts, NICs, and protocol state of ``bed``."""
    if registry is None:
        registry = MetricsRegistry()
    engine = getattr(bed, "engine", None)
    if engine is not None:
        engine.register_metrics(registry)
    for host in getattr(bed, "hosts", ()):
        host.cpu.register_metrics(registry)
        for nic in host.nics.values():
            nic.register_metrics(registry)
        mbufs = getattr(host, "mbufs", None)
        if mbufs is not None:
            mbufs.register_metrics(registry)
        dispatcher = getattr(host, "dispatcher", None)
        if dispatcher is not None:
            dispatcher.register_metrics(registry)
        registry.source(
            "os.interrupts_handled",
            lambda h=host: h.interrupts_handled,
            "NIC interrupts taken by the OS models",
        )
        fabric = getattr(host, "fabric_pipeline", None)
        if fabric is not None:
            fabric.register_metrics(registry)
    for stack in getattr(bed, "stacks", ()):
        ip = getattr(stack, "ip", None)
        if ip is not None:
            ip.register_metrics(registry)
        tcp = getattr(stack, "tcp", None)
        if tcp is not None:
            tcp.register_metrics(registry)
        udp = getattr(stack, "udp", None)
        if udp is not None:
            udp.register_metrics(registry)
    return registry
