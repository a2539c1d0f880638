"""Chaos testbed: seeded impairment campaigns with invariant checking.

The paper's safety story (sections 2-3) is that application-specific
protocol code runs *in the kernel* without compromising the system; the
chaos harness supplies the adversarial-network half of that argument.  A
*campaign* builds a testbed, arms every wire with a sampled
:class:`~repro.hw.link.ImpairmentModel` (Gilbert-Elliott bursty loss,
reordering, duplication, jitter, throttling, link flaps), drives a
workload -- the workload registry's own UDP echo and TCP stream, in the
half the bed's OS picks (:mod:`repro.chaos.workloads`) -- and then
checks a registry of invariants: byte-exact stream delivery, terminal
socket states, frame/mbuf conservation, drained rings, a drained engine,
and, for oracle campaigns, generated dispatch matching the
``REPRO_FLOW_CACHE=0`` linear-scan oracle.

Everything is replayable: a campaign is fully determined by its
:class:`~repro.chaos.campaign.CampaignSpec` (seed + config), and a failed
campaign emits a repro bundle that ``python -m repro.chaos --replay``
turns back into the identical run.

    python -m repro.chaos --quick            # the fixed seed corpus
    python -m repro.chaos --quick --jobs 4   # same verdicts, parallel
    python -m repro.chaos --replay chaos_bundles/bundle_c007.json
"""

from .campaign import (
    CampaignSpec,
    build_quick_corpus,
    run_campaign,
    run_corpus,
    sample_config,
)
from .invariants import INVARIANTS, check_all
from .bundle import load_bundle, write_bundle

__all__ = [
    "CampaignSpec", "build_quick_corpus", "run_campaign", "run_corpus",
    "sample_config", "INVARIANTS", "check_all", "load_bundle", "write_bundle",
]
