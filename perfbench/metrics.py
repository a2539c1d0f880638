"""Every metric perfbench reports: its unit, direction, and what it moves.

``BENCHMARK.json`` lists the same names (the perfbench tests hold the two
together); its format has no room for the interaction map, so the map
lives here: for each per-layer metric, ``moves`` names the end-to-end
metric it should move and ``on`` the workloads where it does.
"""

from __future__ import annotations

from typing import Dict, List

from .trace import BOUNDARIES, LAYERS

#: ``bound`` is the relative worsening that counts as a regression.  The
#: exact counts resolve 2%.  Over 51 sets of ten runs ``ops_per_ref_s`` had
#: an interquartile spread of 0.013-0.041 of its median, and 0.084 once
#: (the raw rate, on the same runs: 0.07-0.29); the medians of two sets
#: agreed within 0.025.  The benchmark is accepted only while the spread of
#: ten runs stays inside the bound, and is to be built so that every spread
#: seen stays inside a third of it, so the bound is three times the worst
#: spread seen, not the spread itself.  ``setup_s`` has the widest bound a
#: metric may have; its spread (0.07-0.32) can exceed it, which
#: ``--compare`` reports as ``unresolved``.
END_TO_END: List[Dict] = [
    {"name": "ops_per_ref_s", "unit": "op/s", "better": "higher",
     "bound": 0.25},
    {"name": "bytecodes_per_op", "unit": "count", "better": "lower",
     "bound": 0.02},
    {"name": "calls_per_op", "unit": "count", "better": "lower",
     "bound": 0.02},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_NETWORKED = "every workload but dispatch_churn"
_SPIN_HOSTS = "udp_rtt_spin, udp_rtt_spin_obs, tcp_bulk_spin, fabric_open_loop"

#: where each layer does its work
_LAYER_ON = {
    "sim": "flows_unix and fabric_open_loop most; 0 on dispatch_churn",
    "hw": _NETWORKED,
    "spin": "udp_rtt_spin and fabric_open_loop (steady state), "
            "dispatch_churn (install/invalidate); <= 6% of flows_unix",
    "lang": _SPIN_HOSTS,
    "core": _SPIN_HOSTS,
    "unixos": "flows_unix only",
    "fabric": "fabric_open_loop only",
    "obs": "udp_rtt_spin_obs only; on the other five it is the cost of "
           "observers that are off, expected 0",
    "apps": "none: no workload runs an application extension yet",
    "net.ethernet": "udp_rtt_spin, udp_rtt_spin_obs",
    "net.ip": _NETWORKED,
    "net.udp": "udp_rtt_spin, udp_rtt_spin_obs, fabric_open_loop, "
               "the UDP half of flows_unix",
    "net.tcp": "tcp_bulk_spin, the TCP half of flows_unix; 0 on the UDP loops",
    "net.checksum": "tcp_bulk_spin (9 KB segments) most",
    "net.other": "fabric_open_loop (flow keys, forwarding tables) most",
    "generated": _SPIN_HOSTS + ", dispatch_churn",
    "stdlib": "tcp_bulk_spin (numpy checksum helpers)",
    "harness": "every workload: the load generator's own frames",
}

_COUNTS = {
    # name: (unit, better, on)
    "sim.events_per_op": ("count", "lower", _NETWORKED),
    "sim.timers_per_op": ("count", "lower", "tcp_bulk_spin, flows_unix"),
    "hw.tx_frames_per_op": ("count", "lower", _NETWORKED),
    "hw.rx_drops": ("count", "lower", "none: must stay 0"),
    "spin.raises_per_op": ("count", "lower", _SPIN_HOSTS + ", dispatch_churn"),
    "spin.invocations_per_raise": ("count", "lower",
                                   _SPIN_HOSTS + ", dispatch_churn"),
    "spin.flowcache_hit_ratio": ("ratio", "higher",
                                 "udp_rtt_spin, fabric_open_loop"),
    "spin.flowcache_invalidations": ("count", "lower", "dispatch_churn"),
    "spin.flowcache_evictions": ("count", "lower", "none: caches fit"),
    "spin.compiled_replay_ratio": ("ratio", "higher",
                                   "udp_rtt_spin, fabric_open_loop"),
    "spin.compiled_plans": ("count", "lower", "dispatch_churn"),
    "spin.mbufs_per_op": ("count", "lower", _NETWORKED),
    "spin.mbufs_in_use_at_end": ("count", "lower", _NETWORKED),
    "net.tcp.segments_out_per_op": ("count", "lower",
                                    "tcp_bulk_spin, flows_unix"),
    "net.tcp.checksum_errors": ("count", "lower", "none: must stay 0"),
    "net.udp.datagrams_per_op": ("count", "lower",
                                 "the UDP loops, fabric_open_loop, flows_unix"),
    "unixos.kb_per_flow": ("KB", "lower", "flows_unix only"),
    "unixos.peak_conns": ("count", "lower", "flows_unix only"),
    "fabric.lookups_per_op": ("count", "lower", "fabric_open_loop only"),
    "fabric.table_hit_ratio": ("ratio", "higher", "fabric_open_loop only"),
    "fabric.ecmp_per_op": ("count", "lower", "fabric_open_loop only"),
    "fabric.dropped": ("count", "lower", "none: must stay 0"),
}

#: The modelled system's results.  Exact, and the same for every seed on
#: some workloads, so they are pinned by ``expected.json`` and compared
#: between reps instead of carrying a bound: a change that only speeds
#: the simulator must leave them identical.
_SIMULATED = {
    "sim_latency_p50_us": ("sim_us", "lower",
                           "all but tcp_bulk_spin and dispatch_churn"),
    "sim_latency_p99_us": ("sim_us", "lower",
                           "all but tcp_bulk_spin and dispatch_churn"),
    "sim_goodput_mbps": ("sim_Mb/s", "higher", _NETWORKED),
    "sim_cpu_us_per_op": ("sim_us", "lower", "every workload"),
}


def _per_layer() -> Dict[str, Dict]:
    table: Dict[str, Dict] = {}
    for layer in LAYERS:
        on = _LAYER_ON[layer]
        table[layer + ".bytecodes_per_op"] = {
            "unit": "count", "better": "lower", "on": on,
            "moves": "bytecodes_per_op one for one; ops_per_ref_s by at most "
                     "%s.self_share" % layer}
        table[layer + ".calls_per_op"] = {
            "unit": "count", "better": "lower", "on": on,
            "moves": "calls_per_op one for one"}
        table[layer + ".self_share"] = {
            "unit": "ratio", "better": "lower", "on": on,
            "moves": "caps what a faster %s can add to ops_per_ref_s" % layer}
    for name, (unit, better, on) in _COUNTS.items():
        moves = "bytecodes_per_op and ops_per_ref_s through its layer"
        if name.startswith(("sim.", "hw.", "net.")):
            moves += "; a change must show in sim_cpu_us_per_op / " \
                     "sim_latency_* or be explained"
        if name == "unixos.kb_per_flow":
            moves = "peak_rss_mb"
        table[name] = {"unit": unit, "better": better, "on": on,
                       "moves": moves}
    for name in BOUNDARIES:
        table[name] = {
            "unit": "count", "better": "lower",
            "on": "wherever the layer it enters does work",
            "moves": "calls_per_op; crossings of the seam between layers"}
    for name, (unit, better, on) in _SIMULATED.items():
        table[name] = {"unit": unit, "better": better, "on": on,
                       "moves": "nothing on the host: it is the model's result"}
    for name in ("harness.opcode_overhead_ratio",
                 "harness.profile_overhead_ratio"):
        table[name] = {
            "unit": "ratio", "better": "lower", "on": "every workload",
            "moves": "nothing: the cost of the traced pass over an "
                     "untraced rep at the same scale"}
    return table


PER_LAYER: Dict[str, Dict] = _per_layer()
