"""The bench harness's single owners: one gate, one baseline loader, one
CLI parser, one workload registry.

The gate's policies are table-driven here, first on bare rows and then
through the latency suite's row extractor on a synthetic report;
``test_slo.py::TestLatencyGate`` goes through the same functions.
Nothing here depends on how fast the host is: the gate judges
fingerprints only, and a run records nothing host-timed.
"""

import copy
import functools
import hashlib
from dataclasses import replace

import pytest

from repro.bench import slo, workloads
from repro.bench.__main__ import _parser, main
from repro.bench.slo import (gate, judge, load_baseline, write_baseline,
                             write_json)
from repro.bench.testbed import DEVICES
from repro.bench.workloads import PINGPONG, WORKLOADS, run_once
from repro.core.manager import UdpEndpoint
from repro.net.tcp.tcb import Tcb
from repro.sim import SimulationError
from repro.unixos.sockets import UdpSocket


# ---------------------------------------------------------------------------
# the policies on bare rows
# ---------------------------------------------------------------------------

ROW = {"fingerprint": {"f": 1, "g": 2}}


def _row(**changes):
    return dict(copy.deepcopy(ROW), **changes)


#: id, rows, baseline, ok, error substrings, warning substrings
#: ("" = there must be none)
POLICY_TABLE = [
    ("clean", _row(), _row(), True, "", ""),
    # fingerprint drift is an error
    ("baseline fingerprint drift", _row(),
     _row(fingerprint={"f": 1, "g": 3}), False,
     "fingerprint drifted from the committed baseline on g", ""),
    # a committed baseline is fingerprints: a row it lacks warns
    ("row missing from the baseline", _row(), "missing", True, "",
     "no committed baseline for 'w'"),
    # rows bring their own findings along
    ("row-level error", _row(errors=["request r0 does not reconcile"]),
     _row(), False, "does not reconcile", ""),
    ("row-level note", _row(warnings=["probe ran short"]), _row(), True, "",
     "ran short"),
]


@pytest.mark.parametrize(
    "row, base, ok, error, warning",
    [case[1:] for case in POLICY_TABLE], ids=[case[0] for case in POLICY_TABLE])
def test_gate_policy(row, base, ok, error, warning):
    baseline = {} if base == "missing" else {"w": base}
    verdict = gate({"w": row}, baseline)["w"]
    assert verdict["ok"] is ok
    for expected, found in ((error, verdict["errors"]),
                            (warning, verdict["warnings"])):
        if expected:
            assert any(expected in message for message in found), found
        else:
            assert not found


# ---------------------------------------------------------------------------
# the policies through the suite's row extractor
# ---------------------------------------------------------------------------

_SIDE = {"n": 10, "p50_ns": 100, "p99_ns": 200, "p999_ns": 300,
         "max_ns": 300, "sum_ns": 1500, "requested": 10, "completed": 10,
         "still_open": 0}


def _latency_report():
    return {
        "quick": True,
        "legs": {"udp_echo@g400": {"open": dict(_SIDE), "closed": dict(_SIDE)}},
        "decomposition": {"udp_clean": {
            "percentiles": dict(_SIDE), "components_ns": {"cpu_service": 9},
            "reconciled": True, "errors": []}},
    }


#: the suites the gate serves, by the name the test ids carry
SUITES = {"latency": _latency_report}


def _set(path, value):
    """A report mutation: walk ``path`` and assign ``value``."""
    def mutate(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


#: suite, what is wrong with the fresh report, the row that must say so,
#: ok, and a substring of the error ("" = clean)
SUITE_TABLE = [
    ("latency", None, "udp_echo@g400", True, ""),
    ("latency", _set(["legs", "udp_echo@g400", "open", "p99_ns"], 240),
     "udp_echo@g400", False, "drifted from the committed baseline on open"),
    ("latency", _set(["decomposition", "udp_clean", "components_ns"],
                     {"cpu_service": 8}), "decomposition:udp_clean", False,
     "drifted from the committed baseline on components_ns"),
    ("latency", _set(["decomposition", "udp_clean", "errors"],
                     ["request r0 does not reconcile"]),
     "decomposition:udp_clean", False, "does not reconcile"),
]


@pytest.mark.parametrize("suite, mutate, row, ok, error", SUITE_TABLE)
def test_suite_rows_through_the_gate(tmp_path, suite, mutate, row, ok,
                                     error):
    build = SUITES[suite]
    path = str(tmp_path / "baseline.json")
    write_baseline(build(), path)
    report = build()
    if mutate is not None:
        mutate(report)
    judge(report, path)
    verdict = report["comparison"][row]
    assert verdict["ok"] is ok and report["ok"] is ok
    if error:
        assert any(error in message for message in verdict["errors"]), verdict
    others = [name for name in report["comparison"] if name != row]
    assert all(report["comparison"][name]["ok"] for name in others)


def test_baseline_is_the_projection_of_the_gate_rows(tmp_path):
    path = str(tmp_path / "baseline.json")
    write_baseline(_latency_report(), path)
    baseline = load_baseline(path)
    assert set(baseline) == {"schema_version", "quick"}
    assert all(set(committed) == {"fingerprint"}
               for committed in baseline["quick"].values())
    # The other scale survives a refresh.
    full = _latency_report()
    full["quick"] = False
    write_baseline(full, path)
    assert set(load_baseline(path)) >= {"quick", "full"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_slow_or_missing_baseline_only_warns(tmp_path, suite):
    path = str(tmp_path / "baseline.json")
    report = judge(SUITES[suite](), path)                       # no file
    verdict = report["comparison"]["udp_echo@g400"]
    assert report["ok"] and verdict["ok"] and not verdict["errors"]
    assert any("no committed baseline" in w for w in verdict["warnings"])


def test_a_100x_slower_host_changes_no_verdict(tmp_path):
    """Host speed is not this harness's to judge: a baseline whose rows
    still carry the host-time columns of older schemas (``wall_s``,
    ``events_per_sec``, a ``host`` block) judges a fresh report clean,
    with no ``speed_*`` key on any row."""
    path = str(tmp_path / "latency.json")
    write_baseline(_latency_report(), path)
    baseline = load_baseline(path)
    baseline["host"] = {"machine": "x"}
    for committed in baseline["quick"].values():
        committed.update(wall_s=1.0, events_per_sec=100.0)
    write_json(baseline, path)
    report = _latency_report()
    assert judge(report, path)["ok"]
    for verdict in report["comparison"].values():
        assert verdict == {"ok": True, "errors": [], "warnings": []}


# ---------------------------------------------------------------------------
# the one baseline loader
# ---------------------------------------------------------------------------

class TestLoadBaseline:
    def test_missing_file_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) is None

    def test_corrupt_file_raises_with_its_path(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"quick": {"w": {"fingerprint"')     # truncated
        with pytest.raises(ValueError, match="baseline.json"):
            load_baseline(str(path))

    def test_corrupt_baseline_cannot_turn_the_gate_off(self, tmp_path):
        """Both old loaders returned None here, every row then read "no
        committed baseline", and the suite exited 0."""
        path = tmp_path / "baseline.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="unreadable"):
            judge(_latency_report(), str(path))


# ---------------------------------------------------------------------------
# the one argument parser
# ---------------------------------------------------------------------------

class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["--latecy"],                       # a typo once ran the full report
        ["--check", "--latency"],           # one mode at a time
        ["--quick", "--full"],
        ["--jobs", "0"], ["--jobs", "two"], ["--jobs"],   # retired
        ["--latency", "--sim-jobs", "2"],   # deleted with the sharded runs
        ["--write-baseline"],               # needs --latency
        ["--parallel-curve", "--write-baseline"],
        ["--speedup-smoke"],                # deleted with its CI step
        ["--wallclock"],                    # retired: perfbench pins its rows
        ["--check", "--jobs", "4"],
        ["--parallel-curve", "--jobs", "4"],
        ["--check", "--full"],
        ["--full"],                         # the report has one scale
        ["--parallel-curve"],               # deleted with the sharded runs
        ["--charts"],                       # deleted: the report prints them
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_quick_is_the_explicit_default(self):
        parser = _parser()
        assert not parser.parse_args(["--latency", "--quick"]).full
        assert not parser.parse_args(["--latency"]).full
        assert parser.parse_args(["--latency", "--full"]).full


# ---------------------------------------------------------------------------
# the one workload registry
# ---------------------------------------------------------------------------

def _swap_segments(monkeypatch):
    """A Tcb that hands its first two segments' payloads over swapped."""
    real = Tcb._deliver
    held = []

    def deliver(self, data):
        held.append(data)
        if len(held) == 2:
            real(self, data)
            real(self, held[0])
        elif len(held) > 2:
            real(self, data)
    monkeypatch.setattr(Tcb, "_deliver", deliver)


def _flip_byte(monkeypatch):
    """A Tcb that flips one bit of the second segment it delivers."""
    real = Tcb._deliver
    count = []

    def deliver(self, data):
        count.append(1)
        if len(count) == 2:
            data = bytes([data[0] ^ 1]) + bytes(data[1:])
        real(self, data)
    monkeypatch.setattr(Tcb, "_deliver", deliver)


def _echo_twice(monkeypatch):
    """An echo that sends every reply twice: the SPIN handler's endpoint
    and the UNIX server's socket alike."""
    echo_port = PINGPONG["ports"][0]
    real_send, real_sendto = UdpEndpoint.send, UdpSocket.sendto

    def send(self, payload, dst_ip, dst_port, claimed_src_port=None):
        for _ in range(2 if self.port == echo_port else 1):
            real_send(self, payload, dst_ip, dst_port, claimed_src_port)

    def sendto(self, data, addr, checksum=True):
        for _ in range(2 if self.port == echo_port else 1):
            yield from real_sendto(self, data, addr, checksum)
    monkeypatch.setattr(UdpEndpoint, "send", send)
    monkeypatch.setattr(UdpSocket, "sendto", sendto)


MUTANTS = {"swap_segments": _swap_segments, "flip_byte": _flip_byte,
           "echo_twice": _echo_twice}


@functools.lru_cache(maxsize=None)
def _delivered(name, os_name, device):
    """(delivered, sent) bytes of registry scenario ``name`` at a small
    scale on a clean ``os_name`` / ``device`` bed; ``run_once`` has
    already checked them against each other."""
    record, states = WORKLOADS[name], []

    def setup(bed, scale, lifecycle=None):
        state, main = record.setup(bed, scale, lifecycle)
        states.append(state)
        return state, main
    run_once(replace(record, build=workloads._pair(os_name, device),
                     setup=setup), 20_000 if name == "tcp_bulk" else 12)
    state = states[0]
    if "payload" in state:
        return bytes(state["delivered"]), state["payload"]
    return b"".join(state["echoes"]), b"".join(state["sent"])


class TestRegistry:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_every_record_runs_at_its_warmup_scale(self, name):
        record = WORKLOADS[name]
        result = run_once(record, record.warmup)
        assert set(result) == {"events", "metrics", "fingerprint"}
        assert result["events"] > 0 and result["fingerprint"]
        assert record.quick <= record.full

    def test_paper_measures_run_the_registry_scenario(self):
        """Figure 5 and section 4.2 are the registry's ``udp_pingpong`` /
        ``tcp_bulk`` scenarios on a bed of their own choosing: equal by
        ``==`` on floats where the beds coincide, and pinned to the means
        recorded before they shared a definition where the OS, the
        handler mode or the checksum switch differs."""
        from repro.bench.latency import measure_plexus_udp_rtt
        from repro.bench.throughput import measure_plexus_tcp_throughput
        assert measure_plexus_udp_rtt(
            "ethernet", "interrupt", trips=60).mean == run_once(
                WORKLOADS["udp_pingpong"], 60)["fingerprint"]["mean_rtt_us"]
        assert measure_plexus_tcp_throughput("atm", 100_000) == run_once(
            WORKLOADS["tcp_bulk"], 100_000)["fingerprint"]["mbps"]
        assert measure_plexus_udp_rtt(
            "ethernet", "thread", trips=20).mean == 875.1759999999997
        assert measure_plexus_udp_rtt(
            "ethernet", trips=20, checksum=False).mean == 572.0399999999995
        # The DIGITAL UNIX bars and rows run the scenarios' socket halves,
        # pinned to the means their own socket programs measured before.
        from repro.bench.latency import measure_unix_udp_rtt
        from repro.bench.throughput import measure_unix_tcp_throughput
        assert [measure_unix_udp_rtt(device, trips=20).mean
                for device in ("ethernet", "atm", "t3")] == [
            980.5760000000006, 763.9179354838695, 709.1982222222232]
        assert measure_unix_udp_rtt("ethernet", trips=6).mean == \
            980.5759999999997
        assert [measure_unix_tcp_throughput(device, 600_000)
                for device in ("ethernet", "atm")] == [
            9.098294838523802, 27.683868275368138]
        assert measure_unix_tcp_throughput("atm", 400_000) == \
            27.369838006338412

    # Delivery bugs the end-of-run check must catch on either OS half;
    # each passed silently while the scenarios sent zeros and counted.
    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    @pytest.mark.parametrize("name, device, mutant", [
        ("tcp_bulk", "atm", "swap_segments"),
        ("tcp_bulk", "atm", "flip_byte"),
        ("udp_pingpong", "ethernet", "echo_twice"),
    ], ids=["swapped-segments", "flipped-byte", "echo-twice"])
    def test_a_delivery_bug_fails_the_run(self, monkeypatch, os_name, name,
                                          device, mutant):
        record = replace(WORKLOADS[name],
                         build=workloads._pair(os_name, device))
        run_once(record, record.warmup)             # the clean run passes
        MUTANTS[mutant](monkeypatch)
        with pytest.raises(SimulationError, match="delivery check failed"):
            run_once(record, record.warmup)

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("os_name", ["spin", "unix"])
    @pytest.mark.parametrize("name", ["udp_pingpong", "udp_echo@g2000",
                                      "tcp_bulk"])
    def test_both_halves_deliver_the_same_seeded_bytes(self, name, os_name,
                                                       device):
        """On a clean bed either half delivers exactly what the scenario
        sent -- the seeded stream byte-exact, each datagram echoed once --
        so the two halves' delivered bytes hash alike."""
        delivered, sent = _delivered(name, os_name, device)
        assert delivered == sent and len(sent) > 0
        other = _delivered(name, "unix" if os_name == "spin" else "spin",
                           device)[0]
        assert hashlib.sha256(delivered).digest() == \
            hashlib.sha256(other).digest()

    def test_latency_legs_pair_with_their_closed_twins(self):
        for name in slo.LEGS:
            assert name in WORKLOADS
        twins = [name for name in WORKLOADS if name.endswith("/closed")]
        assert sorted(name[:-len("/closed")] for name in twins) == sorted(
            name for name in slo.LEGS if "@" in name)
        for probe in slo.PROBES:
            assert WORKLOADS[probe].kinds

    def test_a_scenario_that_raises_under_a_horizon_fails_the_run(self):
        """A bounded run never waited on its main process, so an
        exception escaping the scenario stayed parked in it and the run
        returned a normal-looking record; pending at the horizon stays
        legal."""
        from dataclasses import replace
        record = WORKLOADS["udp_clean"]

        def bounded(main):
            def setup(bed, scale, lifecycle=None):
                state, _main = record.setup(bed, scale, lifecycle)
                state["until"] = 1_000.0
                return state, lambda: main(bed.engine)
            return replace(record, setup=setup)

        def raises(engine):
            yield engine.timeout(5.0)
            raise RuntimeError("scenario bug")

        def outlives_the_horizon(engine):
            yield engine.timeout(5_000.0)

        with pytest.raises(RuntimeError, match="scenario bug"):
            run_once(bounded(raises), 3)
        result = run_once(bounded(outlives_the_horizon), 3)
        assert result["fingerprint"]["final_now_us"] == 1_000.0

    def test_a_child_process_that_raises_fails_the_run(self):
        """Open-loop fetches are processes nobody yields: an exception in
        one (here the tracker refusing a second outstanding request) used
        to stay parked in it, and the run reported 6 of 10 fetches done."""
        with pytest.raises(RuntimeError, match="one outstanding request"):
            slo._observed(WORKLOADS["tcp_objects@g2000"], True, tracked=True)

    # The names CI's ``python -m repro.obs --workload`` steps drive.
    @pytest.mark.parametrize("name", ["udp_pingpong", "tcp_bulk",
                                      "many_flows"])
    def test_obs_profiles_every_default_suite_workload(self, name):
        from repro.obs.__main__ import profile_workload
        record, profiler, registry, tracer = profile_workload(name, quick=True)
        assert record["name"] == name and record["events"] > 0
        assert sum(profiler.categories().values()) > 0.0
        assert len(registry) > 0 and tracer is None

    def test_deferred_replies_hold_every_flow_live(self):
        record = run_once(WORKLOADS["mega_flows"], 120)
        fp = record["fingerprint"]
        assert fp["tcp_done"] + fp["udp_done"] == 120
        # Every 8th flow is TCP, and the server defers every push until
        # all flows have arrived -- so the connection peak is exactly
        # the full TCP population, not a trickle of early retirements.
        assert fp["peak_conns"] == 120 // 8
        assert fp["bytes_in"] > 0

    def test_mega_flows_is_on_demand_only(self):
        assert "mega_flows" not in slo.leg_names(quick=True)
        assert "mega_flows" in slo.leg_names(quick=False)
