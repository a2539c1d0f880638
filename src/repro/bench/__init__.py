"""Benchmark harness: every table and figure in the paper's evaluation.

One module per experiment family:

* :mod:`repro.bench.latency` -- Figure 5 (UDP round-trip latency).
* :mod:`repro.bench.throughput` -- section 4.2 (TCP throughput).
* :mod:`repro.bench.video` -- Figure 6 + the section 5.1 client study.
* :mod:`repro.bench.forwarding` -- Figure 7 (TCP redirection).
* :mod:`repro.bench.micro` -- dispatcher/guard microbenchmarks (sec. 2).
* :mod:`repro.bench.ablations` -- design-choice ablations.
* :mod:`repro.bench.testbed` -- the simulated machine room.
* :mod:`repro.bench.report` -- regenerate everything as one report.
* :mod:`repro.bench.claims` -- the paper's claims, one ledger every
  check reads.
"""

from .report import format_table, run_everything
from .stats import Summary, summarize
from .testbed import Testbed, build_raw_pair, build_testbed

__all__ = [
    "Summary",
    "Testbed",
    "build_raw_pair",
    "build_testbed",
    "format_table",
    "run_everything",
    "summarize",
]
