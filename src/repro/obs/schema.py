"""The documented export schema: every metric the registry may publish.

CI's ``obs`` job (``--check-schema``) instruments both OS models and a
fat-tree fabric and fails in either direction: on a registered metric
that is missing here, and on a row here that none of the three beds
registers -- so the schema, and the README namespace table generated
from it, can neither drift behind the code nor document a metric no
command publishes.  One bed legitimately registers a subset (the UNIX
model has no dispatcher, only the fabric has switch pipelines); the
reverse direction is judged over their union.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["EXPORT_SCHEMA", "undocumented_metrics"]

#: name -> (type, description).  Keep sorted by name.
EXPORT_SCHEMA: Dict[str, tuple] = {
    "fabric.pipeline.dropped": ("gauge", "frames dropped by switch pipelines (route miss, unparseable)"),
    "fabric.pipeline.ecmp": ("gauge", "forwarding decisions that hashed an ECMP group"),
    "fabric.pipeline.forwarded": ("gauge", "frames forwarded by switch pipelines"),
    "fabric.pipeline.packets": ("gauge", "frames entering switch pipelines"),
    "fabric.port.forwarded": ("gauge", "frames egressed per switch port"),
    "fabric.port.received": ("gauge", "frames accepted per switch port"),
    "fabric.table.entries": ("gauge", "routes installed across switch route tables"),
    "fabric.table.hits": ("gauge", "switch route lookups that hit a route"),
    "fabric.table.misses": ("gauge", "switch route lookups that missed"),
    "fabric.table.updates": ("gauge", "control-plane route writes on switch route tables"),
    "hw.cpu.busy_us": ("gauge", "consumed CPU time across hosts (simulated us)"),
    "hw.cpu.charged_us": ("gauge", "sum of per-category charged CPU time (simulated us)"),
    "hw.cpu.paths_queued": ("gauge", "kernel paths that found the CPU busy and queued"),
    "hw.cpu.uncontexted_charge_us": ("gauge", "try_charge time issued outside any context"),
    "hw.cpu.uncontexted_charges": ("gauge", "try_charge calls issued outside any context"),
    "hw.nic.rx_bytes": ("gauge", "frame bytes received"),
    "hw.nic.rx_drops": ("gauge", "frames dropped: receive ring full"),
    "hw.nic.rx_filtered": ("gauge", "frames seen on the wire but not addressed to us"),
    "hw.nic.rx_frames": ("gauge", "frames received"),
    "hw.nic.rx_pending": ("gauge", "frames sitting in receive rings"),
    "hw.nic.tx_bytes": ("gauge", "frame bytes transmitted"),
    "hw.nic.tx_drops": ("gauge", "staged frames dropped: transmit queue full"),
    "hw.nic.tx_frames": ("gauge", "frames transmitted"),
    "net.ip.header_errors": ("gauge", "IP packets dropped on a bad header, a total length past the bytes received, or DF and too big"),
    "net.tcp.checksum_errors": ("gauge", "TCP segments dropped on checksum"),
    "net.tcp.connections": ("gauge", "live TCP connection blocks"),
    "net.tcp.header_errors": ("gauge", "TCP segments dropped on a truncated header or a bad data offset"),
    "net.tcp.no_listener": ("gauge", "SYNs arriving with no listener bound"),
    "net.tcp.resets_sent": ("gauge", "RST segments emitted"),
    "net.tcp.segments_in": ("gauge", "TCP segments accepted by input processing"),
    "net.tcp.segments_out": ("gauge", "TCP segments emitted"),
    "net.udp.checksum_errors": ("gauge", "UDP datagrams dropped on checksum"),
    "net.udp.checksums_skipped": ("gauge", "UDP datagrams accepted without checksum"),
    "net.udp.datagrams_in": ("gauge", "UDP datagrams delivered upward"),
    "net.udp.datagrams_out": ("gauge", "UDP datagrams emitted"),
    "net.udp.header_errors": ("gauge", "UDP datagrams dropped on a truncated header or a length past the packet"),
    "os.interrupts_handled": ("gauge", "NIC interrupts taken by the OS models"),
    "sim.engine.events_processed": ("gauge", "events popped by the engine"),
    "sim.engine.now_us": ("gauge", "simulated clock (us)"),
    "sim.engine.pending": ("gauge", "live events on the heap (cancelled timers excluded)"),
    "sim.wheel.scheduled": ("gauge", "kernel timers ever armed (name kept for perfbench)"),
    "spin.dispatcher.compiled_scans": ("gauge", "handler snapshots compiled to generated scan functions"),
    "spin.dispatcher.events": ("gauge", "declared event names"),
    "spin.dispatcher.failures": ("gauge", "contained guard and handler exceptions (all handles ever)"),
    "spin.dispatcher.raises": ("gauge", "event raises (linear or compiled)"),
    "spin.dispatcher.invocations": ("gauge", "handler invocations"),
    "spin.dispatcher.terminations": ("gauge", "ephemeral runs cut at their time limit (all handles ever)"),
    "spin.mbuf.allocated": ("gauge", "mbufs ever allocated: the links a BSD chain would have"),
    "spin.mbuf.chains": ("gauge", "packets (one chain each) ever allocated"),
    "spin.mbuf.freed": ("gauge", "mbufs freed"),
    "spin.mbuf.in_use": ("gauge", "mbufs currently allocated minus freed"),
}


def undocumented_metrics(registry) -> List[str]:
    """Registered names missing from :data:`EXPORT_SCHEMA` (want: empty)."""
    return sorted(name for name in registry.names() if name not in EXPORT_SCHEMA)
