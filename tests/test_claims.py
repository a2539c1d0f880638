"""The ledger of the paper's claims (``repro.bench.claims``), checked
without running a benchmark.

* Every row is well formed.
* Every paper cell of EXPERIMENTS.md's Figure 5, section 4.2 and
  section 2 tables equals the ledger rows its ``ledger`` column names.
* Every Figure 5 row holds on the closed form (``latency_model.py``),
  which ``test_latency_model.py`` ties to the simulator at 1e-9: the
  paper's Figure 5 claims are checked here with no simulation.
"""

import os
import re

import pytest

from latency_model import rtt_us
from repro.bench.claims import BY_ID, CLAIMS, KINDS, OPS, harness, verdict

EXPERIMENTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "EXPERIMENTS.md")

#: The EXPERIMENTS.md tables with a paper column, by their heading.
HEADINGS = ("## Figure 5 —", "## Section 4.2 —", "## Section 2 microbenchmarks")

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


def _paper_rows():
    """``(heading, paper cell, ledger ids)`` for every row of the tables."""
    rows, heading, columns = [], None, None
    with open(EXPERIMENTS, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("## "):
                heading = line if line.startswith(HEADINGS) else None
                columns = None
            if heading is None or not line.startswith("|"):
                continue
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if columns is None:
                columns = cells
            elif not set(cells[0]) <= set("- "):
                paper = cells[next(i for i, name in enumerate(columns)
                                   if name.startswith("paper"))]
                ids = re.findall(r"`([^`]+)`", cells[columns.index("ledger")])
                rows.append((heading.strip(), paper, ids))
    return rows


def test_experiments_md_paper_cells_equal_the_ledger():
    rows = _paper_rows()
    assert len({heading for heading, _paper, _ids in rows}) \
        == len(HEADINGS)
    named = set()
    for heading, paper, ids in rows:
        claims = [BY_ID[claim_id] for claim_id in ids]
        named.update(ids)
        where = "%s: %r" % (heading, paper)
        number = re.match(r"(<|~)?\s*(\d+(?:\.\d+)?)", paper)
        if number:
            kind = "bound" if number.group(1) == "<" else "target"
            assert any(c.kind == kind and c.op == "<"
                       and c.value == float(number.group(2))
                       for c in claims), where
        else:
            # No stated number: none of the named rows targets one.
            assert not any(c.kind == "target" and len(c.cells) == 1
                           for c in claims), where
        for quote in re.findall(r'"([^"]+)"', paper):
            assert any(quote in c.sentence for c in claims), (where, quote)
    stated = {c.id for c in CLAIMS if c.kind == "target"
              and len(c.cells) == 1 and c.id.startswith(("fig5.", "sec42."))}
    assert stated <= named


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
