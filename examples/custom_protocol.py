#!/usr/bin/env python3
"""Define a brand-new protocol on top of IP -- the paper's openness claim.

"An application, regardless of its privilege level, may define
application-specific protocols."  This example builds RDP-lite, a toy
reliable-datagram protocol with its own IP protocol number, header layout
(a VIEW-able record), sequence numbers, and ACKs -- entirely as an
application extension, without touching kernel source.

It also demonstrates the motivating optimization of section 1.1: the
protocol carries a flag that disables its payload checksum, and the demo
measures what that buys.

Run:  python examples/custom_protocol.py
"""

from repro.bench import build_testbed
from repro.core import Credential
from repro.lang import VIEW, Layout, UINT8, UINT16, UINT32, ephemeral
from repro.lang.view import VIEW as _VIEW
from repro.net.checksum import internet_checksum
from repro.sim import Signal

#: RDP-lite's wire header: a scalar aggregate, hence VIEW-able.
RDP_HEADER = Layout("RdpLite.T", [
    ("seq", UINT32),
    ("flags", UINT8),       # bit 0: this is an ACK; bit 1: checksummed
    ("window", UINT8),
    ("checksum", UINT16),
])
RDP_PROTO = 253  # IANA "experimental"
FLAG_ACK = 0x01
FLAG_CSUM = 0x02


class RdpLite:
    """One endpoint of the toy reliable-datagram protocol."""

    def __init__(self, stack, peer_ip: int, use_checksum: bool = True,
                 name: str = "rdp"):
        self.host = stack.host
        self.peer_ip = peer_ip
        self.use_checksum = use_checksum
        self.credential = Credential(name)
        self.send_seq = 0
        self.recv_seq = 0
        self.delivered = []
        self.acked = set()
        self.on_deliver = None
        self._ip_send = stack.ip_manager.send_capability(self.credential)
        endpoint = self

        @ephemeral
        def handler(proto, m, off, src, dst):
            endpoint._input(m, off, src)
        self.handle = stack.ip_manager.claim_protocol(
            self.credential, RDP_PROTO, handler, time_limit=500.0)

    # -- sending ----------------------------------------------------------

    def send(self, payload: bytes) -> int:
        """Send one numbered datagram (plain code, kernel context)."""
        self.send_seq += 1
        header = bytearray(RDP_HEADER.size)
        view = VIEW(header, RDP_HEADER)
        view.seq = self.send_seq
        view.flags = FLAG_CSUM if self.use_checksum else 0
        view.checksum = 0
        if self.use_checksum:
            self.host.cpu.charge(
                len(payload) * self.host.costs.checksum_per_byte, "checksum")
            view.checksum = internet_checksum(payload)
        m = self.host.mbufs.from_bytes(bytes(header) + payload,
                                       leading_space=64)
        self._ip_send(m, self.peer_ip, RDP_PROTO)
        return self.send_seq

    def _send_ack(self, seq: int) -> None:
        header = bytearray(RDP_HEADER.size)
        view = VIEW(header, RDP_HEADER)
        view.seq = seq
        view.flags = FLAG_ACK
        m = self.host.mbufs.from_bytes(bytes(header), leading_space=64)
        self._ip_send(m, self.peer_ip, RDP_PROTO)

    # -- receiving -----------------------------------------------------------

    @ephemeral
    def _input(self, m, off, src) -> None:
        data = m.data
        if len(data) < off + RDP_HEADER.size:
            return
        view = _VIEW(data, RDP_HEADER, offset=off)
        if view.flags & FLAG_ACK:
            self.acked.add(view.seq)
            return
        payload = bytes(m.to_bytes()[off + RDP_HEADER.size:])
        if view.flags & FLAG_CSUM:
            self.host.cpu.charge(
                len(payload) * self.host.costs.checksum_per_byte, "checksum")
            if internet_checksum(payload) != view.checksum:
                return  # corrupted: drop, sender will not see an ACK
        if view.seq == self.recv_seq + 1:
            self.recv_seq = view.seq
            self.delivered.append(payload)
            if self.on_deliver is not None:
                self.on_deliver(payload)
        self._send_ack(view.seq)


def run_rdp(use_checksum: bool, messages: int = 10,
            payload_len: int = 2048) -> float:
    """Round-trip message+ack latency of RDP-lite over the ATM interface."""
    bed = build_testbed("spin", "atm")
    engine = bed.engine
    a = RdpLite(bed.stacks[0], bed.ip(1), use_checksum, name="rdp-a")
    b = RdpLite(bed.stacks[1], bed.ip(0), use_checksum, name="rdp-b")
    del b
    host = bed.hosts[0]
    acked = Signal(engine)
    orig_input = a._input

    @ephemeral
    def spying_input(m, off, src):
        orig_input(m, off, src)
        host.defer(acked.fire)
    a._input = spying_input
    # Reinstall with the spy (runtime adaptation at work).
    a.handle.uninstall()

    @ephemeral
    def handler(proto, m, off, src, dst):
        spying_input(m, off, src)
    a.handle = bed.stacks[0].ip_manager.claim_protocol(
        a.credential, RDP_PROTO, handler, time_limit=500.0)

    samples = []
    payload = bytes(payload_len)

    def drive():
        for _ in range(messages):
            start = engine.now
            waiter = acked.wait()
            yield from host.kernel_path(lambda: a.send(payload))
            yield waiter
            samples.append(engine.now - start)
    engine.run_process(drive())
    assert len(a.acked) == messages
    return sum(samples) / len(samples)


def main() -> None:
    with_csum = run_rdp(use_checksum=True)
    without = run_rdp(use_checksum=False)
    print("RDP-lite: a user-defined reliable-datagram protocol on IP %d"
          % RDP_PROTO)
    print("  2 KB message + ack over ATM, checksummed: %7.1f us" % with_csum)
    print("  same, checksum disabled (sec. 1.1):       %7.1f us" % without)
    print("  the application-specific variant saves %.1f us per message"
          % (with_csum - without))


if __name__ == "__main__":
    main()
