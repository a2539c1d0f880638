"""One measured run of one workload: reps, checks, and the traced passes.

Host throughput comes only from untraced reps; the exact work counts
come from two traced passes afterwards (:mod:`perfbench.trace`).  Every
rep runs on a fresh testbed with the cyclic collector quiesced, and
every rep's outputs are checked: a violated check counts all of that
rep's ops as failed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from . import trace
from .calibrate import Slicer, ops_per_ref_s
from .metrics import END_TO_END, PER_LAYER
from .workloads import DEFAULT_SEED, FAULTS, WORKLOADS, Rep  # noqa: F401 (run.py reads FAULTS)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 5
#: timed reps are never fewer than this, however slow the host
MIN_REPS = 3


def _direct(run: Callable[[], None]) -> None:
    run()


class Run:
    """Accumulates the reps of one run and judges their outputs."""

    def __init__(self, name: str, seed: int, fault: Optional[str] = None,
                 pinned: bool = True):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.fault = fault
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: str(scale) -> the simulated fingerprint every rep there must have
        self.fingerprints: Dict[str, Dict] = {}
        self._pins: Dict[str, Dict] = {}
        if pinned and seed == DEFAULT_SEED:
            with open(EXPECTED_PATH) as fh:
                self._pins = json.load(fh)["pins"].get(name, {})

    def rep(self, scale: int, around: Callable = _direct,
            calibrated: bool = False) -> Rep:
        """Build, run (inside ``around``) and check one rep at ``scale``."""
        slicer = Slicer(self.workload.slice_ticks, calibrated)
        run, finish = self.workload.make(scale, self.seed, slicer, self.fault)
        gc.collect()
        gc.disable()    # GC pauses land at random; simulated time cannot see them
        try:
            started = time.perf_counter()
            slicer.start()
            around(run)
            slicer.cut()
            wall = time.perf_counter() - started
        finally:
            gc.enable()
        rep = finish()
        rep.wall_s = wall
        rep.slicer = slicer
        self._judge(rep, scale)
        return rep

    def _judge(self, rep: Rep, scale: int) -> None:
        # json round-trips floats exactly, so pins compare bit for bit.
        fingerprint = json.loads(json.dumps(rep.fingerprint))
        first = self.fingerprints.setdefault(str(scale), fingerprint)
        if fingerprint != first:
            rep.problems.append("simulated fingerprint %r differs from an "
                                "earlier rep's %r" % (fingerprint, first))
        pin = self._pins.get(str(scale))
        if pin is not None and fingerprint != pin:
            rep.problems.append("simulated fingerprint %r differs from "
                                "expected.json's %r" % (fingerprint, pin))
        self.attempted += rep.ops_attempted
        self.failed += rep.failed
        self.problems.extend("%s @%d: %s" % (self.name, scale, problem)
                             for problem in rep.problems)

    def result(self, metrics: Dict[str, Dict]) -> Dict:
        """The run's result, in the shape the last line of output has."""
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def setup_only(name: str, seed: int) -> None:
    """What ``setup_s`` times: everything before the first timed rep."""
    Run(name, seed).rep(WORKLOADS[name].profile_scale)


def expected_pins() -> Dict:
    """The contents of ``expected.json``, computed from this checkout."""
    pins = {}
    for name, workload in WORKLOADS.items():
        run = Run(name, DEFAULT_SEED, pinned=False)
        for scale in (workload.scale, workload.profile_scale,
                      workload.opcode_scale):
            run.rep(scale)
        if run.problems:
            raise RuntimeError("cannot pin a failing run: %s" % run.problems)
        pins[name] = run.fingerprints
    return {"seed": DEFAULT_SEED, "pins": pins}


def _probe_setup(name: str, seed: int, script: str) -> float:
    """Median wall time of fresh interpreters importing, building, warming."""
    command = [sys.executable, script, "--setup-only", "--workload", name,
               "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _traced_passes(run: Run):
    """The opcode pass and the profile pass, each with its checked rep."""
    counter = trace.OpcodeCounter()
    opcode_rep = run.rep(run.workload.opcode_scale, counter.runcall)
    profile = trace.Profile()
    profile_rep = run.rep(run.workload.profile_scale, profile.runcall)
    return counter, opcode_rep, profile, profile_rep


def measure_end_to_end(name: str, seed: int, seconds: float, script: str,
                       fault: Optional[str] = None) -> Dict:
    """``--trace 0``: untraced timed reps, then the two exact totals."""
    run = Run(name, seed, fault)
    workload = run.workload
    setup_s = _probe_setup(name, seed, script)
    run.rep(workload.profile_scale)         # discarded warm-up: codegen, pools
    reps: List[Rep] = []
    timed = 0.0
    while timed < seconds or len(reps) < MIN_REPS:
        reps.append(run.rep(workload.scale, calibrated=True))
        timed += reps[-1].wall_s
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counter, opcode_rep, profile, profile_rep = _traced_passes(run)
    values = {
        "ops_per_ref_s": ops_per_ref_s(reps[0].ops,
                                       [rep.slicer for rep in reps]),
        "bytecodes_per_op": counter.total / opcode_rep.ops,
        "calls_per_op": profile.total_calls / profile_rep.ops,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": setup_s,
    }
    result = run.result({
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in END_TO_END})
    # The raw rate, for the record: workload seconds only, the kernel's out.
    raw = [rep.ops / sum(work for work, _ in rep.slicer.slices)
           for rep in reps]
    quartiles = statistics.quantiles(raw, n=4)
    result["detail"] = {"op": workload.op, "loop": workload.loop,
                        "reps": len(reps), "ops_per_rep": reps[0].ops,
                        "rep_wall_s": statistics.median(
                            rep.wall_s for rep in reps),
                        "raw_ops_per_s": statistics.median(raw),
                        "raw_ops_per_s_q1": quartiles[0],
                        "raw_ops_per_s_q3": quartiles[2],
                        "problems": run.problems,
                        "fingerprints": run.fingerprints}
    return result


def measure_per_layer(name: str, seed: int,
                      fault: Optional[str] = None) -> Dict:
    """``--trace 1``: where the work is, layer by layer."""
    run = Run(name, seed, fault)
    workload = run.workload
    # The process's first rep, at full scale: the only one whose peak-RSS
    # growth is all its own (ru_maxrss never resets), and the one whose
    # counts and simulated results describe the timed load.
    full = run.rep(workload.scale)
    plain_profile = run.rep(workload.profile_scale)
    plain_opcode = run.rep(workload.opcode_scale)
    counter, opcode_rep, profile, profile_rep = _traced_passes(run)

    values: Dict[str, float] = {}
    by_layer = counter.by_layer()
    shares = profile.self_shares()
    for layer in trace.LAYERS:
        values[layer + ".bytecodes_per_op"] = by_layer[layer] / opcode_rep.ops
        values[layer + ".calls_per_op"] = profile.calls[layer] / profile_rep.ops
        values[layer + ".self_share"] = shares[layer]
    for metric, calls in profile.boundary_calls.items():
        values[metric] = calls / profile_rep.ops
    values.update(full.counts)
    values.update(full.sim)
    values["harness.opcode_overhead_ratio"] = (
        opcode_rep.wall_s / plain_opcode.wall_s)
    values["harness.profile_overhead_ratio"] = (
        profile_rep.wall_s / plain_profile.wall_s)
    result = run.result({
        metric: {"value": values[metric], "unit": spec["unit"]}
        for metric, spec in PER_LAYER.items()})
    result["detail"] = {"op": workload.op, "loop": workload.loop,
                        "problems": run.problems,
                        "fingerprints": run.fingerprints}
    return result
