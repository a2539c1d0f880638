"""The ledger of the paper's claims (``repro.bench.claims``), checked
without running a benchmark.

* Every row is well formed.
* EXPERIMENTS.md's paper tables are the report (``run_everything()``)
  byte for byte, and every number the paper states for a Figure 5 or
  section 4.2 cell is in their paper column.
* Every Figure 5 row holds on the closed form (``latency_model.py``),
  which ``test_latency_model.py`` ties to the simulator at 1e-9: the
  paper's Figure 5 claims are checked here with no simulation.
"""

import os

import pytest

from latency_model import rtt_us
from repro.bench.claims import BY_ID, CLAIMS, KINDS, OPS, harness, verdict
from repro.bench.report import run_everything

EXPERIMENTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "EXPERIMENTS.md")

#: The lines around the report in EXPERIMENTS.md.
BEGIN = "<!-- python -m repro.bench: begin -->\n```text\n"
END = "\n```\n<!-- python -m repro.bench: end -->"

FIGURE5 = [claim for claim in CLAIMS
           if all(c.harness == "latency.measure_rtt" for c in claim.cells)]


def test_the_ledger_is_wellformed():
    assert len(BY_ID) == len(CLAIMS), "claim ids are not unique"
    for claim in CLAIMS:
        assert claim.kind in KINDS and claim.op in OPS, claim.id
        assert claim.section and claim.sentence, claim.id
        for c in claim.cells:
            assert callable(harness(c.harness)), (claim.id, c.harness)
        if claim.kind == "ordering":
            assert len(claim.cells) >= 2 and claim.value is None, claim.id
            continue
        assert len(claim.cells) in (1, 2), claim.id
        if claim.kind in ("target", "golden"):
            assert 0 < claim.tolerance <= 0.35 and claim.value > 0, claim.id
        else:
            assert claim.tolerance is None, claim.id
        if isinstance(claim.value, tuple):
            lo, hi = claim.value
            assert lo < hi and claim.op in ("<", "<="), claim.id


def _committed():
    with open(EXPERIMENTS, encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    return text.split(BEGIN)[1].split(END)[0]


def test_experiments_md_is_the_report():
    """Regenerate with ``python -m repro.bench`` and paste its output,
    the header line apart, between the markers."""
    assert _committed() == run_everything()


def test_experiments_md_paper_cells_equal_the_ledger():
    """The paper column (the last) of the Figure 5 and section 4.2
    tables holds exactly the numbers the paper states for one cell."""
    paper = []
    for table in _committed().split("\n\n"):
        title, header, _rule, *rows = table.split("\n")
        if title.startswith(("Figure 5:", "Section 4.2:")):
            assert header.split()[-1].startswith("paper_"), title
            paper += [float(row.split()[-1]) for row in rows
                      if row.split()[-1] != "-"]
    stated = [c.value for c in CLAIMS if c.kind == "target"
              and len(c.cells) == 1 and c.id.startswith(("fig5.", "sec42."))]
    assert sorted(paper) == sorted(stated)


def _model(c):
    device, system, fast = c.args
    return rtt_us(device, system, fast)


@pytest.mark.parametrize("claim", FIGURE5, ids=[c.id for c in FIGURE5])
def test_figure5_claim_holds_in_closed_form(claim):
    record = verdict(claim, _model)
    assert record["ok"], (claim.sentence, record)


def test_figure5_covers_the_paper_relations():
    ids = {claim.id for claim in FIGURE5}
    for device in ("ethernet", "atm", "t3"):
        assert {"fig5.%s.ordering" % device,
                "fig5.%s.dux-over-interrupt" % device,
                "fig5.%s.protocol-share" % device} <= ids
    assert {"fig5.ethernet.plexus-interrupt.under-600",
            "fig5.device-ordering"} <= ids
