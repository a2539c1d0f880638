"""Campaign runner: build, impair, drive, drain, check, fingerprint.

A campaign is a pure function of its :class:`CampaignSpec`: the spec's
seed derives the impairment config, every per-wire RNG stream, and the
workload payloads, so running the same spec twice -- in this process, in
another process, or from a replayed bundle -- produces the identical
verdict, counters, and trace fingerprint.  ``run_corpus(..., jobs=N)``
exploits exactly that: campaigns are sharded over a process pool and the
results merged back in declaration order, byte-identical to a serial run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..bench.workloads import MODES, env_override
from ..hw.link import ImpairmentConfig
from ..net.tcp.tcb import TcpState
from ..net.trace import PacketTracer
from .invariants import check_all
from .workloads import WORKLOADS, WorkloadState

__all__ = ["CampaignSpec", "CampaignContext", "sample_config",
           "build_quick_corpus", "build_fabric_corpus", "run_campaign",
           "run_corpus", "DRAIN_US", "TRACE_LIMIT"]

#: Post-shutdown settling time: covers the worst retransmit give-up
#: (8 backoffs capped at 640 ms each ~= 5.1 s) plus TIME_WAIT (1 s).
DRAIN_US = 12_000_000.0

#: Settling time after the process-exit abort sweep: one RST each way
#: plus generous slack.
ABORT_DRAIN_US = 2_000_000.0

#: Ring size of the per-campaign tracer -- the decoded tail that lands in
#: a repro bundle.
TRACE_LIMIT = 256

#: Per-wire RNG stream separation (a prime, so derived seeds never
#: collide across the handful of wires a testbed has).
_WIRE_SEED_STRIDE = 7919


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce one campaign bit-for-bit."""

    name: str
    seed: int
    os_name: str                  # "spin" | "unix"
    device: str                   # "ethernet" | "atm" | "t3"
    workload: str                 # key into workloads.WORKLOADS
    scale: int                    # workload size (bytes, datagrams, flows)
    duration_us: float            # traffic window before shutdown
    config: ImpairmentConfig
    oracle: bool = False          # also run the REPRO_FLOW_CACHE=0 oracle
    sabotage: Optional[str] = None  # deliberate breakage (tests/CI demo)
    #: media indexes (``bed.media()`` order) to impair; None = every wire.
    #: Multi-hop fabric beds use this to hit one core link and nothing else.
    impair_wires: Optional[Tuple[int, ...]] = None
    #: (core_index, at_us): schedule a control-plane re-route around that
    #: core mid-campaign (fabric beds only).
    reroute: Optional[Tuple[int, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        record["config"] = self.config.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "CampaignSpec":
        record = dict(record)
        record["config"] = ImpairmentConfig.from_dict(record["config"])
        if record.get("impair_wires") is not None:
            record["impair_wires"] = tuple(record["impair_wires"])
        if record.get("reroute") is not None:
            record["reroute"] = tuple(record["reroute"])
        return cls(**record)


class CampaignContext:
    """A finished (quiesced) campaign, ready for invariant checking."""

    def __init__(self, spec: CampaignSpec, bed, state: WorkloadState,
                 models: List, tracer: PacketTracer):
        self.spec = spec
        self.bed = bed
        self.state = state
        self.models = models
        self.tracer = tracer
        self.oracle_violations: List[str] = []

    def impairment_counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for model in self.models:
            for key, value in model.counters().items():
                total[key] = total.get(key, 0) + value
        return total

    def fingerprint(self) -> Dict[str, Any]:
        """The determinism contract: identical for identical specs.

        Flow-cache counters are deliberately excluded -- they legitimately
        differ between the compiled path and the linear-scan oracle.
        """
        engine = self.bed.engine
        flows = {}
        for flow in self.state.flows:
            if flow["kind"] == "stream":
                body = bytes(flow["delivered"])
                flows[flow["name"]] = {
                    "received": len(body),
                    "sha": hashlib.sha256(body).hexdigest()[:16],
                    "reset": flow["reset"],
                }
            else:
                flows[flow["name"]] = {
                    "echoes": len(flow["echoes"]),
                    "sha": hashlib.sha256(
                        b"".join(flow["echoes"])).hexdigest()[:16],
                }
        tcp = {"segments_sent": 0, "retransmits": 0, "fast_retransmits": 0,
               "checksum_errors": 0}
        for stack in self.bed.stacks:
            tcp["checksum_errors"] += stack.tcp.checksum_errors
        for tcb in self.state.tcbs:
            tcp["segments_sent"] += tcb.segments_sent
            tcp["retransmits"] += tcb.retransmits
            tcp["fast_retransmits"] += tcb.fast_retransmits
        return {
            "final_now_us": engine.now,
            "events": engine.events_processed,
            "flows": flows,
            "tcp": tcp,
            "media": [medium.fault_counters() for medium in self.bed.media()],
            "trace_crc": zlib.crc32(self.tracer.render().encode()) & 0xFFFFFFFF,
        }


# ---------------------------------------------------------------------------
# config sampling
# ---------------------------------------------------------------------------

def sample_config(rng: random.Random,
                  duration_us: float = 2_000_000.0) -> ImpairmentConfig:
    """Draw a moderately hostile impairment config from ``rng``.

    Severities are tuned so a correct stack recovers inside a quick
    campaign: loss bursts are escapable, flaps are shorter than the
    retransmit give-up, throttling never starves the wire outright.
    """
    values: Dict[str, Any] = {}
    if rng.random() < 0.75:
        if rng.random() < 0.5:   # bursty (Gilbert-Elliott proper)
            values.update(
                loss_good=rng.uniform(0.0, 0.02),
                loss_bad=rng.uniform(0.10, 0.45),
                p_good_bad=rng.uniform(0.005, 0.05),
                p_bad_good=rng.uniform(0.15, 0.5),
            )
        else:                    # independent loss (degenerate GE)
            rate = rng.uniform(0.01, 0.08)
            values.update(loss_good=rate, loss_bad=rate)
    if rng.random() < 0.35:
        values["corrupt_rate"] = rng.uniform(0.002, 0.03)
    if rng.random() < 0.5:
        values.update(duplicate_rate=rng.uniform(0.005, 0.05),
                      duplicate_gap_us=rng.uniform(50.0, 500.0))
    if rng.random() < 0.6:
        values.update(reorder_rate=rng.uniform(0.01, 0.10),
                      reorder_hold_us=rng.uniform(200.0, 1500.0))
    if rng.random() < 0.5:
        values["jitter_us"] = rng.uniform(10.0, 400.0)
    if rng.random() < 0.3:
        values["bandwidth_scale"] = rng.uniform(0.4, 1.0)
    if rng.random() < 0.3 and duration_us > 600_000.0:
        down = rng.uniform(0.1, 0.4) * duration_us
        values["flaps"] = ((down, down + rng.uniform(50_000.0, 200_000.0)),)
    return ImpairmentConfig(**values)


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

#: (os, device, workload, scale, duration_us) rotation for the corpus.
_ROTATION: Tuple[Tuple[str, str, str, int, float], ...] = (
    ("spin", "ethernet", "tcp_bulk", 12_288, 2_500_000.0),
    ("spin", "ethernet", "udp_echo", 30, 1_200_000.0),
    ("unix", "ethernet", "tcp_bulk", 12_288, 2_500_000.0),
    ("spin", "t3", "tcp_bulk", 16_384, 2_000_000.0),
    ("spin", "atm", "mixed", 8, 2_500_000.0),
    ("unix", "ethernet", "mixed", 8, 2_500_000.0),
    ("spin", "ethernet", "mixed", 8, 2_500_000.0),
    ("unix", "t3", "tcp_bulk", 16_384, 2_000_000.0),
    ("spin", "atm", "tcp_bulk", 16_384, 2_000_000.0),
)


def build_quick_corpus(base_seed: int = 1996,
                       count: int = 27) -> List[CampaignSpec]:
    """The fixed seed corpus: ``count`` campaigns over the rotation."""
    specs = []
    for index in range(count):
        os_name, device, workload, scale, duration = \
            _ROTATION[index % len(_ROTATION)]
        seed = base_seed + _WIRE_SEED_STRIDE * 31 * index
        config = sample_config(random.Random(seed), duration)
        specs.append(CampaignSpec(
            name="c%03d" % index, seed=seed, os_name=os_name, device=device,
            workload=workload, scale=scale, duration_us=duration,
            config=config,
            oracle=(os_name == "spin" and index % 5 == 0),
        ))
    return specs


def build_fabric_corpus(base_seed: int = 1996) -> List[CampaignSpec]:
    """Six fat-tree (k=4) campaigns: multi-hop traffic with the chaos
    aimed at the core tier only (``impair_wires`` selects agg-to-core
    links; hosts' access links stay clean so every violation found is
    the fabric's fault, not the workload stalling at its own doorstep).

    ``fab005`` is the re-route campaign: core 0 -- the core the
    ``tcp_bulk`` flow deterministically hashes through in both
    directions -- flaps down at 400 ms and *stays* down, and at 500 ms a
    scheduled control-plane update re-programs every pod's a0 aggregate
    around it.  Byte-exact delivery of the full stream is then evidence
    the re-route worked; retransmissions alone could never finish over a
    dead link.
    """
    from ..fabric.topology import fat_tree_core_wires

    core_wires = fat_tree_core_wires(4)
    core0_wires = fat_tree_core_wires(4, core=0)
    rotation = (
        # (os, workload, scale, duration_us, wires, reroute, flap-only)
        ("spin", "tcp_bulk", 12_288, 2_500_000.0, core_wires, None, False),
        ("spin", "udp_echo", 30, 1_200_000.0, core_wires, None, False),
        ("unix", "tcp_bulk", 12_288, 2_500_000.0, core_wires, None, False),
        ("spin", "mixed", 8, 2_500_000.0, core0_wires, None, False),
        ("unix", "mixed", 8, 2_500_000.0, core_wires, None, False),
        ("spin", "tcp_bulk", 12_288, 2_500_000.0, core0_wires,
         (0, 500_000.0), True),
    )
    specs = []
    for index, (os_name, workload, scale, duration, wires, reroute,
                flap_only) in enumerate(rotation):
        seed = base_seed + _WIRE_SEED_STRIDE * 131 * (index + 1)
        if flap_only:
            # Down at 400 ms, never back up inside the campaign: only
            # the scheduled re-route can finish the stream.
            config = ImpairmentConfig(flaps=((400_000.0, 20_000_000.0),))
        else:
            config = sample_config(random.Random(seed), duration)
        specs.append(CampaignSpec(
            name="fab%03d" % index, seed=seed, os_name=os_name,
            device="fabric", workload=workload, scale=scale,
            duration_us=duration, config=config,
            oracle=(os_name == "spin" and index == 0),
            impair_wires=wires, reroute=reroute,
        ))
    return specs


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _execute(spec: CampaignSpec) -> CampaignContext:
    """Build, impair, drive, shut down, drain.  No checking yet."""
    from ..bench.testbed import build_testbed

    if spec.device == "fabric":
        from ..fabric.topology import fat_tree
        bed = fat_tree(4, os_name=spec.os_name)
    else:
        bed = build_testbed(spec.os_name, spec.device)
    models = []
    for index, medium in enumerate(bed.media()):
        if spec.impair_wires is not None and index not in spec.impair_wires:
            continue
        models.append(medium.set_impairments(
            spec.config, seed=spec.seed + index * _WIRE_SEED_STRIDE))
    if spec.reroute is not None:
        from ..fabric.topology import schedule_core_avoidance
        core_index, at_us = spec.reroute
        schedule_core_avoidance(bed, at_us, core_index)
    tracer = PacketTracer(bed.engine, limit=TRACE_LIMIT)
    link_kind = "ethernet" if spec.device == "ethernet" else "raw"
    for nic in bed.nics:
        tracer.attach(nic, link_kind)

    workload = WORKLOADS[spec.workload]
    state = workload(bed, spec)
    bed.engine.run(until=spec.duration_us)
    _shutdown(bed)
    bed.engine.run(until=spec.duration_us + DRAIN_US)
    _abort_leftovers(bed)
    bed.engine.run(until=spec.duration_us + DRAIN_US + ABORT_DRAIN_US)
    ctx = CampaignContext(spec, bed, state, models, tracer)
    if spec.sabotage:
        _apply_sabotage(ctx)
    return ctx


def _shutdown(bed) -> None:
    """Close every non-terminal connection, each on its own host."""
    for host, stack in zip(bed.hosts, bed.stacks):
        for tcb in list(stack.tcp.connections.values()):
            if tcb.state not in (TcpState.CLOSED, TcpState.TIME_WAIT):
                host.spawn_kernel_path(tcb.close, name="chaos-close")


def _abort_leftovers(bed) -> None:
    """Model process exit after the graceful drain: any connection still
    not terminal -- e.g. parked in FIN_WAIT_2 because the peer's FIN died
    on an impaired wire and its retransmissions gave up -- is hard-reset,
    exactly as a real kernel tears down sockets whose owner exits."""
    for host, stack in zip(bed.hosts, bed.stacks):
        for tcb in list(stack.tcp.connections.values()):
            if tcb.state != TcpState.CLOSED:
                host.spawn_kernel_path(tcb.abort, name="chaos-abort")


def _apply_sabotage(ctx: CampaignContext) -> None:
    """Deliberately break an invariant (testing the harness itself)."""
    kind = ctx.spec.sabotage
    if kind == "tamper_stream":
        for flow in ctx.state.flows:
            delivered = flow.get("delivered")
            if delivered:
                delivered[len(delivered) // 2] ^= 0xFF
                return
        raise RuntimeError("tamper_stream: no stream bytes to tamper with")
    if kind == "leak_timer":
        ctx.bed.hosts[0].set_timer(3600e6, lambda: None, name="chaos-leak")
        return
    raise ValueError("unknown sabotage %r" % kind)


def run_campaign(spec: CampaignSpec) -> Dict[str, Any]:
    """Run one campaign end to end; returns the verdict record."""
    ctx = _execute(spec)
    fingerprint = ctx.fingerprint()
    if spec.oracle and spec.os_name == "spin" and \
            ctx.bed.hosts[0].dispatcher.compiled:
        # The other rung of the bit-exactness ladder: the same campaign
        # with every raise on the interpreted linear scan.
        with env_override(MODES["uncached"]):
            oracle = _execute(spec).fingerprint()
        if oracle != fingerprint:
            diverged = sorted(key for key in fingerprint
                              if oracle.get(key) != fingerprint[key])
            ctx.oracle_violations.append(
                "compiled-path run diverges from the REPRO_FLOW_CACHE=0 "
                "oracle in: %s" % ", ".join(diverged))
    violations = check_all(ctx)
    from ..obs.wire import instrument_testbed
    verdict = {
        "spec": spec.to_dict(),
        "passed": not violations,
        "violations": violations,
        "fingerprint": fingerprint,
        "impairments": ctx.impairment_counters(),
        # Full obs-registry snapshot of the finished bed: deterministic,
        # so it rides along in replay bundles without breaking byte-equal
        # serial/parallel corpus verdicts.
        "metrics": instrument_testbed(ctx.bed).snapshot(),
        "errors": list(ctx.state.errors),
    }
    if violations:
        verdict["trace_tail"] = ctx.tracer.render(last=64)
    return verdict


def _run_spec_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point (specs cross as plain dicts)."""
    return run_campaign(CampaignSpec.from_dict(record))


def run_corpus(specs: List[CampaignSpec],
               jobs: int = 1) -> List[Dict[str, Any]]:
    """Run campaigns serially or on a process pool.

    Results come back in spec order regardless of ``jobs``, so serial and
    parallel runs produce byte-identical reports.
    """
    from ..bench.runner import map_tasks
    return map_tasks(_run_spec_record, [spec.to_dict() for spec in specs],
                     jobs)
