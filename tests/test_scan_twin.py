"""Generated dispatch against the reference scan, end to end.

The ``scan`` twin (``twins.py``) patches the interpreted reference walk
over ``compile_scan``, so every raise of the run takes the semantics
``repro.spin.codegen`` specializes.  A run under it must be the same run
in every observable, heap entries included: on every registry scenario
(the ordered wire log, CPU by category, each handle's statistics,
counters, fingerprint), and on every SPIN campaign of the chaos quick
and fabric corpora (the whole verdict: invariants, fingerprint,
impairment counters, metrics snapshot).
"""

import pytest

from repro.bench.workloads import WORKLOADS
from repro.chaos import build_quick_corpus, run_campaign
from repro.chaos.campaign import build_fabric_corpus
from twins import observe, observed, scan

SPIN_CAMPAIGNS = {spec.name: spec
                  for spec in build_quick_corpus() + build_fabric_corpus()
                  if spec.os_name == "spin"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_reference_scan_sees_the_same_run(name):
    generated = observed(name)
    assert generated[0], "the scenario moved no frame"
    assert observe(WORKLOADS[name], scan) == generated


@pytest.mark.parametrize("name", sorted(SPIN_CAMPAIGNS))
def test_the_reference_scan_gives_the_same_verdict(name):
    spec = SPIN_CAMPAIGNS[name]
    generated = run_campaign(spec)
    assert generated["metrics"]["spin.dispatcher.compiled_scans"]["value"] > 0
    with scan():
        assert run_campaign(spec) == generated
