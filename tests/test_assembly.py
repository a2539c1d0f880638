"""Guards for the parts of a machine both OS models share.

The paper's comparison rests on SPIN and DIGITAL UNIX running "the same
network device driver" and "the same TCP/IP implementation"; these tests
pin that the shared half really is shared: (a) the interrupt path books
the same charges, in the same cells, on either OS model, and (b) every
bed builder emits the same structure (names, addresses, wires, route
tables) it did when the digests below were recorded.
"""

import dis
import hashlib

import pytest

from repro.bench.testbed import DEVICES, OSES, build_raw_pair, build_testbed
from repro.fabric.topology import fat_tree
from repro.hw import ForeAtm, LanceEthernet, T3Nic
from repro.hw.link import Frame
from repro.obs.profiler import CpuProfiler
from repro.sim import Engine
from repro.spin import SpinKernel
from repro.unixos.kernelnet import UnixKernel

NICS = {
    "ethernet": lambda engine: LanceEthernet(engine, "ln0", b"\x02" * 6),
    "atm": lambda engine: ForeAtm(engine, "fa0", "atm-1"),
    "t3": lambda engine: T3Nic(engine, "t3-0", "t3-1"),
}
FRAME_LENGTHS = (64, 300, 1400)


def _deliver(kernel_class, device, register=True, profiled=False):
    """Three frames into one host's NIC; the host, NIC and profiler."""
    engine = Engine()
    host = kernel_class(engine, "h")
    nic = NICS[device](engine)
    host.add_nic(nic)
    if register:
        host.register_device_input(nic, lambda nic_, data: None)
    profiler = CpuProfiler().attach([host]) if profiled else None
    for length in FRAME_LENGTHS:
        nic.frame_on_wire(Frame(bytes(length), "peer", nic.address))
    engine.run()
    if profiler is not None:
        profiler.detach()
    return host, nic, profiler


def _books(host):
    times = host.cpu.category_times
    return (times["interrupt"], times["driver"], times.get("driver-pio"),
            host.cpu.busy_time, host.interrupts_handled)


class TestOneInterruptPath:
    @pytest.mark.parametrize("device", DEVICES)
    def test_spin_and_unix_book_identical_charges(self, device):
        spin, _, _ = _deliver(SpinKernel, device)
        unix, _, _ = _deliver(UnixKernel, device)
        assert _books(spin) == _books(unix)
        assert spin.interrupts_handled == len(FRAME_LENGTHS)
        assert (_books(spin)[2] is not None) == (device == "atm")

    @pytest.mark.parametrize("device", DEVICES)
    def test_profiled_cells_and_labels_identical(self, device):
        spin, _, spin_profile = _deliver(SpinKernel, device, profiled=True)
        unix, _, unix_profile = _deliver(UnixKernel, device, profiled=True)
        assert spin_profile.stacks == unix_profile.stacks
        assert {key[:2] for key in spin_profile.stacks} == \
            {("h", "interrupt_body")}
        assert _books(spin) == _books(unix)
        # Watching changes no number.
        assert _books(spin) == _books(_deliver(SpinKernel, device)[0])

    @pytest.mark.parametrize("kernel_class", [SpinKernel, UnixKernel])
    def test_unregistered_device_pays_entry_exit_and_retires_slot(
            self, kernel_class):
        host, nic, _ = _deliver(kernel_class, "atm", register=False)
        registered, _, _ = _deliver(kernel_class, "atm")
        assert _books(host) == _books(registered)
        costs = host.costs
        expected = 0.0
        for _ in FRAME_LENGTHS:
            expected += costs.interrupt_entry
            expected += costs.interrupt_exit
        assert host.cpu.category_times["interrupt"] == expected
        assert nic.rx_pending == 0
        assert nic.rx_frames == len(FRAME_LENGTHS)


# ---------------------------------------------------------------------------
# (b) structural digests, recorded at e347f9f (before the builders were merged)
# ---------------------------------------------------------------------------

def _link_facts(stack):
    rawlink = getattr(stack, "rawlink", None)
    arp = getattr(stack, "arp", None)
    return (type(stack).__name__,
            sorted(rawlink.neighbors.items()) if rawlink is not None else None,
            sorted(arp.cache.items()) if arp is not None else None)


def _digest(facts) -> str:
    return hashlib.sha1(repr(facts).encode()).hexdigest()


def bed_digest(bed) -> str:
    switches = [
        (switch.name, switch.ecmp_seed,
         [(port.nic.name, port.nic.address, port.peer_addr)
          for port in switch.ports],
         # The route table, spelled as the one LPM table on dst_ip of
         # Forward entries it was when the digests were recorded, so an
         # unchanged fabric keeps its digest.
         [("l3", "dst_ip", "lpm",
           [(network, prefix_len, "(Forward%r,)" % (ports,))
            for network, prefix_len, ports in switch.routes._routes])])
        for switch in getattr(bed, "switches", ())]
    wires = [(name, sorted(nic.address for nic in link.nics))
             for name, link in zip(getattr(bed, "wire_names", ()),
                                   getattr(bed, "links", ()))]
    return _digest((
        bed.os_name, bed.device, type(bed.medium).__name__,
        [host.name for host in bed.hosts], sorted(h.name for h in bed.hosts),
        [(nic.name, nic.address, nic.host.name) for nic in bed.nics],
        wires, switches, list(bed.ips),
        list(getattr(bed, "host_locator", ())),
        [_link_facts(stack) for stack in bed.stacks],
        [socket is not None for socket in bed.sockets],
        sorted(getattr(bed, "edge_switches", {})),
        sorted(getattr(bed, "agg_switches", {})),
        sorted(getattr(bed, "core_switches", {})),
    ))


def raw_pair_digest(device) -> str:
    _, initiator, responder, nic_a, nic_b = build_raw_pair(device)
    return _digest([
        (host.name, host.echo, type(nic).__name__, nic.name, nic.address,
         type(nic.link).__name__, nic.host is host)
        for host, nic in ((initiator, nic_a), (responder, nic_b))])


FABRIC_DIGESTS = {
    "fat_tree(4)": (
        lambda: fat_tree(4),
        "f9fd06d6a055d4bfdb28e7d0a0cd115fb6cb0d12"),
    "fat_tree(4,hpe=2,unix)": (
        lambda: fat_tree(4, hosts_per_edge=2, os_name="unix"),
        "f7fee0e1bc2c3e8bbdb95c2400b7e379ad706cec"),
}
TESTBED_DIGESTS = {
    ("spin", "ethernet"): "810a7368f0654568eba1bfba8d5e06fb25318730",
    ("spin", "atm"): "ce10b7c19e6a8f74a86a613fd118af79b66bcc05",
    ("spin", "t3"): "3d068ffe6409fcdf142ee194e5e056756d31996e",
    ("unix", "ethernet"): "9f12728680ea4747a2e249df5f997acb623d0559",
    ("unix", "atm"): "b7fbb1f8ea217cfcaab8494f5e763b47a33fd5bc",
    ("unix", "t3"): "42fd2678f7669cdc9a4086599c78690e99b8332a",
}
RAW_PAIR_DIGESTS = {
    "ethernet": "14d40f98c041e4dedccd0c36b788d2b80b122e7a",
    "atm": "116d4f391ce16f7543efe459a789199356008bdc",
    "t3": "63d6cea2a6f302379a26c0ecbeba6a745914417e",
}


class TestStructuralDigests:
    @pytest.mark.parametrize("label", sorted(FABRIC_DIGESTS))
    def test_fabric_builders(self, label):
        build, expected = FABRIC_DIGESTS[label]
        assert bed_digest(build()) == expected

    @pytest.mark.parametrize("os_name", OSES)
    @pytest.mark.parametrize("device", DEVICES)
    def test_build_testbed(self, os_name, device):
        assert bed_digest(build_testbed(os_name, device)) == \
            TESTBED_DIGESTS[(os_name, device)]

    @pytest.mark.parametrize("device", DEVICES)
    def test_build_raw_pair(self, device):
        assert raw_pair_digest(device) == RAW_PAIR_DIGESTS[device]

    def test_three_host_ethernet_bed_warms_every_arp_pair(self):
        bed = build_testbed("spin", "ethernet", n_hosts=3)
        for i, stack in enumerate(bed.stacks):
            assert sorted(stack.arp.cache) == sorted(
                ip for j, ip in enumerate(bed.ips) if j != i)


# ---------------------------------------------------------------------------
# nothing on a per-packet path executes an import statement
# ---------------------------------------------------------------------------

def _imports_in(fn):
    return [ins for ins in dis.get_instructions(fn)
            if ins.opname == "IMPORT_NAME"]


class TestNoImportPerPacket:
    @pytest.mark.parametrize("device", DEVICES)
    def test_installed_tcp_standard_guard(self, device):
        stack = build_testbed("spin", device).stacks[0]
        (handle,) = [h for h in stack.tcp_recv_event.handlers
                     if h.label == "tcp-standard"]
        assert handle.guard.__name__ == "tcp_standard"
        assert _imports_in(handle.guard) == []

    @pytest.mark.parametrize("device", DEVICES)
    def test_direct_call_demux(self, device):
        stack = build_testbed("unix", device).stacks[0]
        bottom = stack.ethernet or stack.rawlink
        assert _imports_in(bottom.upcall) == []
        assert _imports_in(stack.ip.upcall) == []

    def test_router_demuxes(self):
        from repro.net import Router, RouterInterface, ip_aton
        engine = Engine()
        kernel = SpinKernel(engine, "r")
        nic_a = LanceEthernet(engine, "ln0", b"\x02" * 6)
        nic_b = T3Nic(engine, "t3-0", "t3-1")
        kernel.add_nic(nic_a)
        kernel.add_nic(nic_b)
        router = Router(kernel, [
            RouterInterface(nic_a, ip_aton("10.1.0.1")),
            RouterInterface(nic_b, ip_aton("10.2.0.1"), link="raw")])
        for nic in (nic_a, nic_b):
            input_fn, label = kernel._device_input[nic.name]
            assert label == "%s-intr" % nic.name
            assert _imports_in(input_fn.__self__.upcall) == []
        assert _imports_in(router.ip.upcall) == []
