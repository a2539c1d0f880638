"""Checks of the benchmark itself, at tiny scales (run explicitly):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import calibrate, harness, run, trace  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

SEED = 7    # not the pinned seed: these scales have no pins

#: (scale, profile_scale, opcode_scale, slice_ticks) small enough for the
#: whole file to run in well under 30 s
TINY = {
    "udp_rtt_spin": (60, 40, 20, 10),
    "udp_rtt_spin_obs": (60, 40, 20, 10),
    "tcp_bulk_spin": (400_000, 300_000, 200_000, 10),
    "flows_unix": (40, 30, 20, 10),
    "fabric_open_loop": (6, 4, 3, 8),
    "dispatch_churn": (600, 400, 200, 100),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _shrink(patch) -> None:
    for name, scales in TINY.items():
        patch.setitem(harness.WORKLOADS, name, harness.WORKLOADS[name]._replace(
            **dict(zip(("scale", "profile_scale", "opcode_scale",
                        "slice_ticks"), scales))))
    patch.setattr(harness, "SETUP_PROBES", 1)


@pytest.fixture
def tiny(monkeypatch):
    _shrink(monkeypatch)


@pytest.fixture(scope="module")
def results():
    """Both kinds of run, once, for every workload."""
    with pytest.MonkeyPatch.context() as patch:
        _shrink(patch)
        return {name: (harness.measure_end_to_end(name, SEED, 0, run.SCRIPT),
                       harness.measure_per_layer(name, SEED))
                for name in harness.WORKLOADS}


def _value(result, metric):
    return result["metrics"][metric]["value"]


def test_benchmark_json_matches_the_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert BENCHMARK["end_to_end"] == END_TO_END
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": spec["unit"], "better": spec["better"]}
        for name, spec in PER_LAYER.items()]
    assert BENCHMARK["paths"] == ["perfbench"]


def test_every_declared_metric_is_emitted_with_its_unit(results):
    for name, (end_to_end, per_layer) in results.items():
        for declared, result in ((BENCHMARK["end_to_end"], end_to_end),
                                 (BENCHMARK["per_layer"], per_layer)):
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics", "detail"}
            assert result["correct"], (name, result["detail"]["problems"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in declared]
            for metric in declared:
                emitted = result["metrics"][metric["name"]]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
        assert all(_value(end_to_end, m["name"]) > 0
                   for m in BENCHMARK["end_to_end"]), name


def test_layers_sum_to_the_end_to_end_counts(results):
    for name, (end_to_end, per_layer) in results.items():
        bytecodes = sum(_value(per_layer, layer + ".bytecodes_per_op")
                        for layer in trace.LAYERS)
        calls = sum(_value(per_layer, layer + ".calls_per_op")
                    for layer in trace.LAYERS)
        shares = sum(_value(per_layer, layer + ".self_share")
                     for layer in trace.LAYERS)
        assert bytecodes == pytest.approx(
            _value(end_to_end, "bytecodes_per_op"), rel=1e-12), name
        assert calls == pytest.approx(
            _value(end_to_end, "calls_per_op"), rel=1e-12), name
        assert shares == pytest.approx(1.0, rel=1e-9), name


def test_opcode_passes_repeat_exactly_and_layers_partition_them(tiny):
    for name, workload in harness.WORKLOADS.items():
        folded = []
        for _ in range(2):
            counter = trace.OpcodeCounter()
            harness.Run(name, SEED).rep(workload.opcode_scale, counter.runcall)
            assert sum(counter.by_layer().values()) == counter.total > 0, name
            folded.append(counter.by_layer())
        assert folded[0] == folded[1], name


def test_layers_that_do_no_work_read_zero(results):
    def bytecodes(name, layer):
        return _value(results[name][1], layer + ".bytecodes_per_op")

    assert bytecodes("udp_rtt_spin", "obs") == 0
    assert bytecodes("udp_rtt_spin_obs", "obs") > 0
    assert bytecodes("udp_rtt_spin", "net.tcp") == 0
    assert bytecodes("udp_rtt_spin", "unixos") == 0
    assert bytecodes("dispatch_churn", "sim") == 0
    assert bytecodes("flows_unix", "unixos") > 0
    assert bytecodes("fabric_open_loop", "fabric") > 0
    assert bytecodes("tcp_bulk_spin", "net.tcp") > 0


def _sliced(slices):
    slicer = calibrate.Slicer(10, calibrated=False)
    slicer.slices[:] = slices
    return slicer


def test_calibrated_rate_cancels_a_slow_host():
    quiet = [(0.020, 0.003), (0.040, 0.003)]
    slow = [(work * 1.5, kernel * 1.5) for work, kernel in quiet]
    noisy = [(0.090, 0.004), (0.040, 0.003)]
    # 20 kernel units of work, at 3 ms a unit on the reference host.
    expected = 100 / (20 * calibrate.REF_CALIB_S)
    for reps in ([quiet] * 3, [slow] * 3, [quiet, slow, noisy]):
        rate = calibrate.ops_per_ref_s(100, [_sliced(rep) for rep in reps])
        assert rate == pytest.approx(expected)
    with pytest.raises(ValueError):
        calibrate.ops_per_ref_s(100, [_sliced(quiet), _sliced(quiet[:1])])


def test_slicer_cuts_every_so_many_ticks_and_at_the_end():
    slicer = calibrate.Slicer(10, calibrated=True)
    slicer.start()
    for _ in range(25):
        slicer.tick()
    slicer.cut()
    assert len(slicer.slices) == 3
    assert all(work >= 0 and kernel > 0 for work, kernel in slicer.slices)


def test_expected_json_pins_hold_at_the_default_seed():
    for name, workload in harness.WORKLOADS.items():
        pinned = harness.Run(name, harness.DEFAULT_SEED)
        pinned.rep(workload.opcode_scale)
        assert pinned.problems == [], name
        assert pinned.fingerprints[str(workload.opcode_scale)] == \
            pinned._pins[str(workload.opcode_scale)]


def test_a_drifted_fingerprint_fails_every_op(tiny):
    drifting = harness.Run("dispatch_churn", SEED)
    scale = harness.WORKLOADS["dispatch_churn"].opcode_scale
    drifting.fingerprints[str(scale)] = {"raises": -1}
    rep = drifting.rep(scale)
    assert rep.failed == rep.ops_attempted == drifting.failed > 0


def test_seeded_fault_fails_the_run_and_exits_1(tiny, capsys):
    code = run.main(["--workload", "tcp_bulk_spin", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0",
                     "--fault", "truncate-tcp"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert run.main(["--workload", "tcp_bulk_spin", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"]) == 0


def test_compare_flags_a_worse_run(tmp_path, results, capsys):
    def write(name, scale_ops=1.0, drift=None, workloads=("dispatch_churn",)):
        runs = []
        for workload in workloads:
            record = json.loads(json.dumps(dict(
                results[workload][0], workload=workload, seed=SEED, trace=0)))
            record["metrics"]["ops_per_ref_s"]["value"] *= scale_ops
            if drift:
                for fingerprint in record["detail"]["fingerprints"].values():
                    fingerprint["sim_cpu_us_per_op"] += drift
            runs.append(record)
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    def verdict(a, b):
        code = run.main(["--compare", a, b])
        return code, capsys.readouterr().out

    same = write("a.json")
    code, out = verdict(same, same)
    assert code == 0 and "worse" not in out and "equal" in out
    code, out = verdict(same, write("slower.json", scale_ops=0.5))
    assert code == 1 and "worse" in out
    code, out = verdict(write("slow.json", scale_ops=0.5), same)
    assert code == 0 and "better" in out
    # a changed simulated result is a changed model, whatever the host says
    code, out = verdict(same, write("drift.json", drift=0.001))
    assert code == 1 and "differs at seed %d" % SEED in out
    both = write("both.json", workloads=("dispatch_churn", "udp_rtt_spin"))
    code, out = verdict(both, same)
    assert code == 1 and "missing" in out
    assert verdict(same, both)[0] == 0
