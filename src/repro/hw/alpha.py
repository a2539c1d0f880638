"""Calibrated cost table for a DEC Alpha 21064 (133 MHz) class workstation.

Every simulated operation that consumes CPU in the reproduction charges a
cost drawn from this table.  The table is the *single* calibration point of
the whole system: the benchmarks print which constants they depend on, and
EXPERIMENTS.md records how the resulting numbers line up with the paper.

Anchors used for calibration (paper section 4, plus the SPIN SOSP'95 paper
for machine-level costs):

* DEC 3000/400, Alpha 21064 @ 133 MHz, 64 MB RAM.
* Plexus UDP round trip (8-byte payload): < 600 us Ethernet, ~350 us Fore
  ATM, ~300 us DEC T3; with a faster driver 337 us Ethernet / 241 us ATM.
* DIGITAL UNIX on the same drivers: "substantially slower".
* Fore TCA-100 uses programmed I/O; effective driver-to-driver bandwidth
  is CPU-limited to ~53 Mb/s.  T3 uses DMA and delivers 45 Mb/s with
  minimal CPU involvement.
* Dispatcher overhead: invoking an event handler is roughly one procedure
  call.

All costs are in microseconds; per-byte costs in microseconds per byte.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["CostTable", "ALPHA_21064", "MICROSECONDS_PER_SECOND",
           "validate_costs"]

MICROSECONDS_PER_SECOND = 1_000_000.0


def validate_costs(table) -> None:
    """Raise ``ValueError`` unless every field of the dataclass ``table``
    is a finite, non-negative cost.

    Checked once, at construction: the hot charge sites inline
    ``cpu.charge`` without its sign test, so a table that holds a
    negative, NaN or infinite cost must never exist."""
    for field in dataclasses.fields(table):
        value = getattr(table, field.name)
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError("%s.%s must be a finite non-negative cost, "
                             "got %r" % (type(table).__name__, field.name,
                                         value))


@dataclasses.dataclass(frozen=True)
class CostTable:
    """Per-operation CPU costs (microseconds unless noted)."""

    # -- machine primitives ------------------------------------------------
    procedure_call: float = 0.15          # call + return, warm cache
    dispatch_per_handler: float = 0.30    # SPIN event dispatch ~= 1-2 calls
    guard_eval: float = 0.25              # evaluate one guard predicate
    handler_install: float = 2.0          # splice a handler into a running
                                          # event's table
    handler_uninstall: float = 1.5        # unsplice + table compaction
    link_extension: float = 2.0           # per-link fixed symbol-table work
    link_per_import: float = 0.5          # resolve one imported symbol
    unlink_extension: float = 3.0         # tear an extension out of a
                                          # running system
    syscall_trap: float = 9.0             # user->kernel->user trap pair
    context_switch: float = 140.0          # save/restore + scheduler pass
    process_wakeup: float = 25.0          # make a blocked process runnable
    thread_spawn: float = 25.0            # Plexus thread-mode: one thread
                                          # created per event raise
    interrupt_entry: float = 8.0          # device interrupt -> handler
    interrupt_exit: float = 2.0           # EOI + restore
    copy_per_byte: float = 0.025          # memory-to-memory copy (40 MB/s)
    checksum_per_byte: float = 0.028      # Internet checksum pass
    mbuf_alloc: float = 1.2               # allocate + init one mbuf
    mbuf_free: float = 0.6
    framebuffer_write_per_byte: float = 0.25   # 10x slower than RAM writes
    ram_write_per_byte: float = 0.0125    # hand-tuned viewer inner loops
    disk_read_setup: float = 500.0        # per file-system read request
    disk_read_per_byte: float = 0.020     # FS + controller per-byte path

    # -- protocol processing (fixed per-packet components) -------------------
    ethernet_input: float = 3.0
    ethernet_output: float = 3.5
    arp_process: float = 4.0
    ip_input: float = 5.0
    ip_output: float = 6.0
    icmp_process: float = 4.0
    udp_input: float = 4.0
    udp_output: float = 4.5
    tcp_input: float = 18.0
    tcp_output: float = 20.0
    socket_layer: float = 25.0            # BSD socket bookkeeping per op
    sockbuf_enqueue: float = 6.0          # append to a socket buffer

    def __post_init__(self) -> None:
        validate_costs(self)

    def scaled(self, factor: float) -> "CostTable":
        """A uniformly scaled copy (e.g. model a faster/slower CPU)."""
        values = {
            field.name: getattr(self, field.name) * factor
            for field in dataclasses.fields(self)
        }
        return CostTable(**values)


#: The default calibration: DEC 3000/400 class machine.
ALPHA_21064 = CostTable()
