"""Generated dispatch against the reference scan, end to end.

The ``scan`` twin (``twins.py``) patches the interpreted reference walk
over ``compile_scan``, so every raise of the run takes the semantics
``repro.spin.codegen`` specializes.  A run under it must be the same run
in every observable, heap entries included: on every registry scenario
(the ordered wire log, CPU by category, each handle's statistics,
counters, fingerprint), and on every SPIN campaign of the chaos quick
and fabric corpora (the whole verdict: invariants, fingerprint,
impairment counters, metrics snapshot).

A kernel raise site calls its event's compiled scan directly, so the
twin covers a site only if the site gets its scan through
``Dispatcher.compile``: on the UDP, TCP and fabric scenarios the
reference walk must run once per raise the dispatchers count.
"""

from unittest import mock

import pytest

import twins
from repro.bench.workloads import WORKLOADS, run_once
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


@pytest.mark.parametrize("name", ["udp_pingpong", "tcp_bulk",
                                  "fabric_fat_tree"])
def test_every_raise_walks_the_reference(name):
    record = WORKLOADS[name]
    walks, beds = [], []

    def counted(dispatcher, event, snapshot, args):
        walks.append(event.name)
        return reference_scan(dispatcher, event, snapshot, args)
    reference_scan = twins.reference_scan
    with scan(), mock.patch.object(twins, "reference_scan", counted):
        run_once(record, record.warmup, instrument=beds.append)
    raises = sum(host.dispatcher.total_raises for host in beds[0].hosts
                 if getattr(host, "dispatcher", None) is not None)
    assert raises > 0
    assert len(walks) == raises
