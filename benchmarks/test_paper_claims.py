"""Every row of the paper's ledger (``repro.bench.claims``), asserted.

One test per row: Figure 5's latencies, section 4.2's throughputs,
Figure 6's video server and the section 5.1 client, Figure 7's
redirection, the section 2 dispatcher, the HTTP demo, the ablations and
the golden pins.  Each cell runs once per session, however many rows
read it.  Below them are the checks no number captures.
"""

import pytest

from repro.bench.claims import CLAIMS, cell, result, verdict


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim):
    record = verdict(claim)
    assert record["ok"], "%s (%s): %s" % (claim.id, claim.sentence, record)


def test_redirect_keeps_tcp_end_to_end():
    """Figure 7: the backend terminates the client's connection behind
    the in-kernel redirect, while the splice "is unable to respect
    end-to-end TCP semantics": the client's peer is the splice."""
    assert result(cell("forwarding.measure_plexus_forwarding",
                       trips=10))["end_to_end"]
    assert not result(cell("forwarding.measure_unix_forwarding",
                           trips=10))["end_to_end"]


def test_rx_ring_accounts_every_frame():
    for row in result(cell("ablations.rx_ring_ablation", frames=80)):
        assert row["delivered"] + row["dropped"] == 80


def test_runtime_install_restores_the_graph():
    """Installing and removing endpoints leaves the graph as it was."""
    assert result(cell("micro.extension_install_cost"))["edges_after"] == 6
