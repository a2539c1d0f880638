"""Result formatting for the benchmark harness.

``format_table`` renders rows the way the paper's tables/figures read;
``run_everything`` regenerates every experiment, at the scales
EXPERIMENTS.md records, and returns the report text: EXPERIMENTS.md's
paper tables are that text, verbatim (``tests/test_claims.py`` renders
it again and compares).

Each experiment is one named section function; ``SECTIONS`` says what
runs and in what order, and the report joins their texts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "run_everything", "SECTIONS"]


def format_table(rows: Sequence[Dict], columns: Sequence[str],
                 title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    widths = {col: len(col) for col in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if isinstance(value, float):
                text = "%.1f" % value
            elif value is None:
                text = "-"
            else:
                text = str(value)
            widths[col] = max(widths[col], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[col])
                               for cell, col in zip(cells, columns)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sections: each builds its own engines and returns its rendered text
# ---------------------------------------------------------------------------

#: round trips per latency cell.
_TRIPS = 20


def _section_figure5() -> str:
    from . import latency
    rows = latency.figure5(trips=_TRIPS)
    return format_table(
        rows, ["device", "system", "rtt_us", "paper_us"],
        title="Figure 5: UDP round-trip latency (8-byte payloads)")


def _section_throughput() -> str:
    from . import throughput
    rows = throughput.section42(total_bytes=1_000_000)
    return format_table(
        rows, ["device", "system", "mbps", "paper_mbps"],
        title="Section 4.2: TCP throughput")


def _section_figure6() -> str:
    from . import video
    rows = video.figure6(
        stream_counts=(1, 3, 5, 8, 10, 12, 15, 18, 21, 25, 30),
        duration_s=0.6)
    for row in rows:
        row["utilization_pct"] = row["utilization"] * 100
    return format_table(
        rows, ["os", "streams", "utilization_pct", "delivered_mbps"],
        title="Figure 6: video server CPU utilization vs streams (T3)")


def _section_video_client() -> str:
    from . import video
    client_rows = [video.measure_video_client(os_name, 0.8)
                   for os_name in ("spin", "unix")]
    for row in client_rows:
        row["utilization_pct"] = row["utilization"] * 100
        row["display_pct"] = row["display_fraction"] * 100
    return format_table(
        client_rows, ["os", "utilization_pct", "display_pct"],
        title="Section 5.1: video client (framebuffer-dominated)")


def _section_figure7() -> str:
    from . import forwarding
    fwd_rows = forwarding.figure7(trips=_TRIPS)
    for row in fwd_rows:
        row["rtt_us"] = row["rtt"].mean
    return format_table(
        fwd_rows, ["system", "rtt_us", "connect_us", "end_to_end"],
        title="Figure 7: TCP redirection latency")


def _section_dispatcher_micro() -> str:
    from . import micro
    disp = micro.dispatcher_overhead_per_handler()
    return format_table(
        [disp], ["per_handler_us", "procedure_call_us",
                 "ratio_to_procedure_call"],
        title="Micro: dispatcher overhead (paper: ~1 procedure call)")


def _section_guard_demux() -> str:
    from . import micro
    return format_table(
        micro.guard_demux_cost(), ["extensions", "demux_us"],
        title="Micro: guard demultiplexing scaling")


def _section_http() -> str:
    from . import http_bench
    http_rows = http_bench.http_comparison(requests=10)
    return format_table(
        http_rows, ["page", "system", "latency_us"],
        title="HTTP service latency (the paper's closing demo)")


def _section_cpu_scaling() -> str:
    from . import http_bench
    scaling = http_bench.cpu_scaling_sweep(trips=_TRIPS)
    return format_table(
        scaling, ["cpu_factor", "plexus_us", "unix_us", "gap_us"],
        title="Sensitivity: Figure 5 Ethernet headline vs CPU speed")


def _ablation_section(row: Dict) -> str:
    return format_table(
        [row], list(row.keys()), title="Ablation: %s" % row["ablation"])


def _section_ablation_checksum() -> str:
    from . import ablations
    return _ablation_section(
        {"ablation": "udp-checksum",
         **ablations.checksum_ablation(trips=_TRIPS)})


def _section_ablation_delivery() -> str:
    from . import ablations
    return _ablation_section(
        {"ablation": "delivery-mode",
         **ablations.delivery_mode_ablation(trips=_TRIPS)})


def _section_ablation_view() -> str:
    from . import ablations
    return _ablation_section(
        {"ablation": "view-vs-copy", **ablations.view_vs_copy_ablation()})


def _section_ablation_active_messages() -> str:
    from . import ablations
    return _ablation_section(
        {"ablation": "active-messages",
         **ablations.active_message_rtt(trips=_TRIPS)})


def _section_ablation_ack() -> str:
    from . import ablations
    return _ablation_section(
        {"ablation": "ack-strategy",
         **ablations.ack_strategy_ablation(
             total_bytes=400_000)})


def _section_rx_ring() -> str:
    from . import ablations
    return format_table(
        ablations.rx_ring_ablation(frames=120),
        ["ring_length", "delivered", "dropped", "loss_pct"],
        title="Ablation: receive-ring depth under burst (ATM)")


#: (name, section) in report order.
SECTIONS = (
    ("figure5", _section_figure5),
    ("throughput", _section_throughput),
    ("figure6", _section_figure6),
    ("video_client", _section_video_client),
    ("figure7", _section_figure7),
    ("dispatcher_micro", _section_dispatcher_micro),
    ("guard_demux", _section_guard_demux),
    ("http", _section_http),
    ("cpu_scaling", _section_cpu_scaling),
    ("ablation_udp_checksum", _section_ablation_checksum),
    ("ablation_delivery_mode", _section_ablation_delivery),
    ("ablation_view_vs_copy", _section_ablation_view),
    ("ablation_active_messages", _section_ablation_active_messages),
    ("ablation_ack_strategy", _section_ablation_ack),
    ("rx_ring", _section_rx_ring),
)


def run_everything() -> str:
    """Regenerate every table and figure; returns the report text."""
    return "\n\n".join(section() for _name, section in SECTIONS)
