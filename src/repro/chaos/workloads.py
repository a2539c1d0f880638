"""Chaos workloads: the registry's two conversations on an impaired bed.

Each workload starts :mod:`repro.bench.workloads`' UDP echo and TCP
stream -- the conversations Figure 5 and section 4.2 measure, in the
half the bed's OS picks -- on a fresh testbed: the echo open-loop and
paced, the stream ending in a clean close.  A conversation is its
scenario state plus a name and a kind ("stream" or "datagram"); it
records what was sent and what arrived, seeded from the campaign seed,
for the invariant registry to check one against the other.

The wire may be arbitrarily hostile.  The scenarios trap protocol errors
into their state's ``errors`` instead of letting them escape: one raised
in a kernel path or timer would end the campaign without a verdict, and
one raised in a user process -- the UNIX half's socket programs, which
nobody yields -- would be kept there unseen.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..bench.workloads import _tcp_stream, _udp_echo
from ..obs.slo import RequestLifecycle

__all__ = ["WorkloadState", "WORKLOADS"]

#: TCP server ports are allocated from here; UDP echo ports from +1000.
TCP_PORT_BASE = 9000
UDP_PORT_BASE = 10000

#: Pacing between UDP datagrams (simulated us); slow enough that a
#: 10 Mb/s Ethernet never queues blindly, fast enough to finish early.
UDP_PACE_US = 3_000.0

UDP_PAYLOAD_BYTES = 256
MIXED_TCP_BYTES = 2_048
MIXED_UDP_DATAGRAMS = 6


class WorkloadState:
    """What a workload did: the conversations it drove and, when set,
    the :class:`~repro.obs.slo.RequestLifecycle` their datagrams begin
    and end on (the ``slo_reconciliation`` invariant audits it; it only
    reads ``engine.now``, so fingerprints are unchanged)."""

    def __init__(self, lifecycle=None) -> None:
        self.flows: List[Dict] = []
        self.lifecycle = lifecycle

    @property
    def tcbs(self) -> List:
        return [tcb for flow in self.flows for tcb in flow.get("tcbs", ())]

    @property
    def errors(self) -> List[str]:
        return ["%s: %s" % (flow["name"], error)
                for flow in self.flows for error in flow["errors"]]


def _start(bed, state: WorkloadState, name: str, kind: str, setup, scale):
    flow, main = setup(bed, scale, state.lifecycle)
    flow.update(name=name, kind=kind)
    state.flows.append(flow)
    bed.engine.process(main(), name="chaos-" + name)


def _stream(bed, state, index: int, seed: int, size: int, start_us=0.0):
    """``tcp<index>``: host ``index % 2`` streams ``size`` seeded bytes
    to the other host, then closes."""
    _start(bed, state, "tcp%d" % index, "stream", _tcp_stream(
        port=TCP_PORT_BASE + index, hosts=(index % 2, (index + 1) % 2),
        start_us=start_us, close=True, seed=seed), size)


def _echo(bed, state, index: int, seed: int, count: int, start_us=0.0):
    """``udp<index>``: host ``index % 2`` sends ``count`` datagrams to an
    echo on the other host, one every :data:`UDP_PACE_US`."""
    name, port = "udp%d" % index, UDP_PORT_BASE + 2 * index
    _start(bed, state, name, "datagram", _udp_echo(
        ports=(port, port + 1), creds=("chaos-echo-" + name,
                                       "chaos-ping-" + name),
        kind="chaos_udp", closed=False, hosts=(index % 2, (index + 1) % 2),
        plan_of=lambda n: [(UDP_PACE_US, UDP_PAYLOAD_BYTES)] * n,
        start_us=start_us, seed=seed), count)


def tcp_bulk(bed, spec) -> WorkloadState:
    """One bulk byte-exact TCP stream of ``spec.scale`` bytes."""
    state = WorkloadState()
    _stream(bed, state, 0, spec.seed ^ 0x5DEECE66, spec.scale)
    return state


def udp_echo(bed, spec) -> WorkloadState:
    """``spec.scale`` paced echo round trips on one UDP conversation."""
    state = WorkloadState(RequestLifecycle(bed.engine))
    _echo(bed, state, 0, spec.seed, spec.scale)
    return state


def mixed(bed, spec) -> WorkloadState:
    """``spec.scale`` concurrent conversations, many_flows-style: even
    slots small TCP streams, odd slots UDP echoes, starts staggered so
    connection setup overlaps established traffic."""
    state = WorkloadState()
    for i in range(spec.scale):
        seed, start_us = spec.seed ^ (0x1000 + i), i * 5_000.0
        if i % 2 == 0:
            _stream(bed, state, i, seed, MIXED_TCP_BYTES, start_us)
        else:
            _echo(bed, state, i, seed, MIXED_UDP_DATAGRAMS, start_us)
    return state


WORKLOADS: Dict[str, Callable] = {
    "tcp_bulk": tcp_bulk,
    "udp_echo": udp_echo,
    "mixed": mixed,
}
