"""The invariant registry: what must be true of any quiesced testbed.

Each invariant is a function ``fn(ctx) -> List[str]`` returning human-
readable violation strings (empty list = holds).  Registration is by
decorator so the campaign runner, the CLI, and the tests all see the
same registry.  The checks run after the campaign has drained: traffic
stopped, every connection closed, retransmissions given up, TIME_WAIT
expired.

These are conservation laws, not heuristics: every frame a medium
carried is delivered, lost, flap-dropped, or duplicated -- nothing else;
every mbuf a host allocated maps to exactly one frame sent or received;
a TCP stream that closed gracefully delivered byte-for-byte what was
sent, in order, exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..hw.link import Switch
from ..net.tcp.tcb import TcpState

__all__ = ["INVARIANTS", "invariant", "check_all"]

INVARIANTS: Dict[str, Callable] = {}


def invariant(name: str) -> Callable:
    def register(fn: Callable) -> Callable:
        if name in INVARIANTS:
            raise ValueError("invariant %r registered twice" % name)
        INVARIANTS[name] = fn
        return fn
    return register


def check_all(ctx) -> List[str]:
    """Run every registered invariant; returns all violations found."""
    violations: List[str] = []
    for name, fn in INVARIANTS.items():
        for problem in fn(ctx):
            violations.append("[%s] %s" % (name, problem))
    return violations


# ---------------------------------------------------------------------------
# delivery correctness
# ---------------------------------------------------------------------------

@invariant("byte_exact_delivery")
def _byte_exact_delivery(ctx) -> List[str]:
    """TCP streams arrive byte-exact and in order; UDP echoes are never
    invented or corrupted (loss and duplication are legal, garbling is
    not)."""
    problems = []
    for flow in ctx.state.flows:
        name = flow["name"]
        if flow["kind"] == "stream":
            received, expected = bytes(flow["delivered"]), flow["payload"]
            if received != expected[:len(received)]:
                problems.append(
                    "%s: received %d bytes diverge from the sent stream"
                    % (name, len(received)))
            elif _graceful(flow) and received != expected:
                problems.append(
                    "%s: graceful close but only %d/%d bytes delivered"
                    % (name, len(received), len(expected)))
        else:
            legal = set(flow["sent"])
            for echo in flow["echoes"]:
                if echo not in legal:
                    problems.append(
                        "%s: echoed datagram matches nothing we sent "
                        "(len=%d)" % (name, len(echo)))
                    break
    return problems


def _graceful(flow) -> bool:
    """Both ends of a stream closed cleanly after the whole payload was
    handed over -- full-stream equality is then required."""
    return (not flow["reset"] and len(flow["tcbs"]) == 2
            and all(tcb.state == TcpState.CLOSED for tcb in flow["tcbs"])
            and flow["sent"] == len(flow["payload"]))


@invariant("terminal_socket_states")
def _terminal_socket_states(ctx) -> List[str]:
    """After shutdown + drain, no connection is stuck mid-state machine."""
    problems = []
    for tcb in ctx.state.tcbs:
        if tcb.state != TcpState.CLOSED:
            problems.append("tcb %s:%d->%d stuck in %s"
                            % (tcb.host.name, tcb.lport, tcb.rport,
                               tcb.state.value))
    for index, stack in enumerate(ctx.bed.stacks):
        leftover = len(stack.tcp.connections)
        if leftover:
            problems.append("host %d tcp.connections still holds %d entries"
                            % (index, leftover))
    return problems


# ---------------------------------------------------------------------------
# conservation laws
# ---------------------------------------------------------------------------

@invariant("frame_conservation")
def _frame_conservation(ctx) -> List[str]:
    """carried = delivered + lost + flap-dropped - duplicated-extra, on
    every wire; and every delivery was accepted, filtered, or dropped by
    exactly one NIC."""
    problems = []
    delivered_total = 0
    for medium in ctx.bed.media():
        expected = medium.expected_deliveries()
        if medium.frames_delivered != expected:
            problems.append(
                "%s: %d deliveries, counters imply %d (%r)"
                % (type(medium).__name__, medium.frames_delivered, expected,
                   medium.fault_counters()))
        forwarded_in = getattr(medium, "frames_forwarded_in", None)
        if forwarded_in is None:
            delivered_total += medium.frames_delivered
        else:
            # A switch port's frames_delivered are hand-offs into the
            # switch fabric; only its egress landings reach a NIC.
            delivered_total += forwarded_in
    nic_seen = sum(nic.rx_frames + nic.rx_filtered + nic.rx_drops
                   for nic in ctx.bed.nics)
    if delivered_total != nic_seen:
        problems.append("media delivered %d frames but NICs account for %d"
                        % (delivered_total, nic_seen))
    switch = ctx.bed.medium if isinstance(ctx.bed.medium, Switch) else None
    if switch is not None:
        accepted = sum(p.frames_delivered for p in switch.ports)
        handled = switch.frames_forwarded + switch.frames_flooded
        if accepted != handled:
            problems.append(
                "switch accepted %d frames but handled %d "
                "(forwarded=%d flooded=%d)"
                % (accepted, handled, switch.frames_forwarded,
                   switch.frames_flooded))
        out = sum(p.frames_forwarded_in for p in switch.ports)
        expected_out = (switch.frames_forwarded
                        + switch.frames_flooded * (len(switch.ports) - 1))
        if out != expected_out:
            problems.append("switch egressed %d frames, counters imply %d"
                            % (out, expected_out))
    staged = sum(nic.tx_frames - nic.tx_drops for nic in ctx.bed.nics)
    carried = sum(medium.frames_carried for medium in ctx.bed.media())
    if staged != carried:
        problems.append("NICs staged %d frames but media carried %d"
                        % (staged, carried))
    return problems


@invariant("mbuf_conservation")
def _mbuf_conservation(ctx) -> List[str]:
    """Every packet a host allocated corresponds to exactly one frame sent
    or received by that host.  (``pool.allocated`` counts the links a BSD
    chain would have, ``Mbuf.links`` -- a jumbo segment on a large-MTU
    link spans several -- so the per-packet law is on ``pool.chains``.)"""
    problems = []
    for host in ctx.bed.hosts:
        tx = sum(nic.tx_frames for nic in host.nics.values())
        rx = sum(nic.rx_frames for nic in host.nics.values())
        expected = tx + rx
        pool = host.mbufs
        if pool.chains != expected:
            problems.append(
                "%s: %d mbuf chains allocated, %d frames moved (tx=%d rx=%d)"
                % (host.name, pool.chains, expected, tx, rx))
        if pool.allocated < pool.chains:
            problems.append("%s: %d chains but only %d mbufs"
                            % (host.name, pool.chains, pool.allocated))
        if pool.freed > pool.allocated:
            problems.append("%s: freed %d > allocated %d"
                            % (host.name, pool.freed, pool.allocated))
    return problems


@invariant("fabric_conservation")
def _fabric_conservation(ctx) -> List[str]:
    """On fabric beds, every frame a switch port accepted is counted
    exactly once as pipeline-forwarded or pipeline-dropped.  Beds without
    switches trivially satisfy this."""
    check = getattr(ctx.bed, "switch_conservation", None)
    return check() if check is not None else []


@invariant("nic_rings_drained")
def _nic_rings_drained(ctx) -> List[str]:
    """At quiesce no frame sits in a transmit queue or receive ring."""
    problems = []
    for nic in ctx.bed.nics:
        if nic.rx_pending:
            problems.append("%s: %d frames stuck in the rx ring"
                            % (nic.name, nic.rx_pending))
        queued = len(nic._tx_queue)
        if queued:
            problems.append("%s: %d frames stuck in the tx queue"
                            % (nic.name, queued))
    return problems


@invariant("engine_drained")
def _engine_drained(ctx) -> List[str]:
    """Nothing live is scheduled after the drain: no event, no armed timer
    (cancelled timers may linger on the heap; they never fire)."""
    pending = ctx.bed.engine.pending_count()
    if pending:
        return ["engine still has %d pending events" % pending]
    return []


@invariant("slo_reconciliation")
def _slo_reconciliation(ctx) -> List[str]:
    """Every completed request's latency decomposition sums bit-exactly
    to its end-to-end latency, and nothing completed in negative time.
    Workloads that attach no lifecycle trivially satisfy this."""
    lifecycle = getattr(ctx.state, "lifecycle", None)
    if lifecycle is None:
        return []
    problems = []
    for request in lifecycle.completed:
        if request.total_ns < 0:
            problems.append("%r completed in negative simulated time"
                            % (request,))
        if request.component_sum_ns() != request.total_ns:
            problems.append(
                "%r decomposition sums to %d ns, end-to-end is %d ns"
                % (request, request.component_sum_ns(), request.total_ns))
    if lifecycle.open_requests < 0:
        problems.append("lifecycle ended %d more requests than it began"
                        % -lifecycle.open_requests)
    return problems

