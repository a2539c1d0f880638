"""Network interface cards: the generic NIC plus the paper's three devices.

The paper's testbed (section 4) has three network adapters per host:

* a 10 Mb/s Lance Ethernet (:class:`LanceEthernet`),
* a 155 Mb/s Fore TCA-100 ATM interface using programmed I/O, which limits
  effective bandwidth to what the CPU can push (:class:`ForeAtm`),
* an experimental 45 Mb/s DEC T3 adapter using DMA (:class:`T3Nic`).

Each device has a :class:`DriverProfile` of CPU costs.  The ``fast``
profiles model the "faster device driver" of section 4.1 (337 us Ethernet /
241 us ATM round trips).

Driver cost accounting follows the host execution discipline: transmit
costs are charged by :meth:`NIC.stage_tx` (called from plain driver code)
and receive costs by :meth:`NIC.driver_recv_charges` (called from the
host's interrupt path).  PIO devices charge per-byte CPU on both paths;
DMA devices charge only fixed setup costs.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import Optional

from ..sim import Engine
from .link import BROADCAST, Frame

__all__ = ["NIC", "DriverProfile", "LanceEthernet", "ForeAtm", "T3Nic",
           "FabricNic"]

_nic_counter = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class DriverProfile:
    """CPU costs of one device driver (microseconds / us-per-byte)."""

    fixed_tx: float           # per-packet transmit path (setup, ring, kick)
    fixed_rx: float           # per-packet receive path (ring, refill, hand-off)
    pio_tx_per_byte: float = 0.0
    pio_rx_per_byte: float = 0.0
    rx_latency_us: float = 10.0   # device-side delay before the interrupt


class NIC:
    """Generic network interface with a transmit queue and rx accounting.

    A device subclass sets ``mtu`` and ``link_header``, passes its
    :class:`DriverProfile` and defines ``wire_bytes(frame_len)``: the
    bytes a frame occupies on the wire (padding, cells...).
    """

    mtu: int = 1500
    link_header: int = 0

    def __init__(self, engine: Engine, name: str, address: Optional[str],
                 profile: DriverProfile,
                 tx_queue_len: int = 64, rx_ring_len: int = 64):
        self.engine = engine
        self.name = name
        self.address = address or "nic-%d" % next(_nic_counter)
        self.profile = profile
        self.host = None          # set by Host.add_nic
        self.link = None          # set by medium.attach
        self._tx_queue = collections.deque()
        self.tx_queue_len = tx_queue_len
        self.tx_drops = 0     # staged frames that found the queue full
        self.rx_ring_len = rx_ring_len
        self.rx_pending = 0
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_drops = 0
        self.rx_filtered = 0  # delivered by the wire, not addressed to us
        self.promiscuous = False
        #: optional repro.obs.taps.NicTaps, told of every stage_tx and
        #: frame_on_wire on entry; None (the default) keeps both per-frame
        #: paths on their untapped shape.
        self.taps = None
        self._draining = False    # a frame of the tx queue is on the wire

    # -- device-specific policy -------------------------------------------

    def provision_rings(self, depth: int) -> None:
        """Deepen the TX queue and RX ring to at least ``depth`` entries.

        The 64-entry defaults model interactive-era hardware; scale-out
        beds that move traffic in wire-rate bursts (tens of thousands of
        datagrams back-to-back) overflow them, and a dropped datagram
        deadlocks any open-loop flow waiting on it.
        """
        self.rx_ring_len = max(self.rx_ring_len, depth)
        self.tx_queue_len = max(self.tx_queue_len, depth)

    def register_metrics(self, registry) -> None:
        """Publish the ring/frame counters on a metrics registry."""
        registry.source("hw.nic.tx_frames", lambda: self.tx_frames)
        registry.source("hw.nic.tx_bytes", lambda: self.tx_bytes)
        registry.source("hw.nic.tx_drops", lambda: self.tx_drops)
        registry.source("hw.nic.rx_frames", lambda: self.rx_frames)
        registry.source("hw.nic.rx_bytes", lambda: self.rx_bytes)
        registry.source("hw.nic.rx_drops", lambda: self.rx_drops)
        registry.source("hw.nic.rx_filtered", lambda: self.rx_filtered)
        registry.source("hw.nic.rx_pending", lambda: self.rx_pending)

    # -- transmit path -------------------------------------------------------

    def stage_tx(self, data: bytes, dst_addr: str) -> bool:
        """Driver transmit entry (plain code): charge CPU, defer the send.

        Returns False when the transmit queue is full and the frame was
        dropped (the caller may count it).
        """
        if self.taps is not None:
            self.taps.tx(data)
        host = self.host
        if host is None:
            raise RuntimeError("NIC %s not installed on a host" % self.name)
        size = len(data)
        if size > self.mtu + self.link_header:
            raise ValueError(
                "frame of %d bytes exceeds %s MTU %d (+%d header)"
                % (size, self.name, self.mtu, self.link_header))
        profile = self.profile
        # cpu.charge inlined (exact body, exact order): per-frame path.
        cpu = host.cpu
        stack = cpu._stack
        if not stack:
            from .cpu import OUTSIDE_PATH, ChargeError
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = profile.fixed_tx
        stack[-1] += amount
        times["driver"] += amount
        if profile.pio_tx_per_byte:
            amount = size * profile.pio_tx_per_byte
            stack[-1] += amount
            times["driver-pio"] += amount
        frame = Frame(data, self.address, dst_addr,
                      wire_bytes=self.wire_bytes(size))

        def enqueue() -> None:
            if len(self._tx_queue) >= self.tx_queue_len:
                self.tx_drops += 1
                return
            self._tx_queue.append(frame)
            if not self._draining:
                # Idle -> busy edge; the drain retires itself when empty.
                self._draining = True
                self._drain()
        host.defer(enqueue)
        self.tx_frames += 1
        self.tx_bytes += size
        # The deferred enqueue runs after this returns, so the staged
        # frame is always accepted from the caller's point of view; queue
        # overflow shows up in ``tx_drops``.
        return True

    def _drain(self) -> None:
        """Put the next queued frame on the wire, FIFO; the medium calls
        back here when it is done with the frame, and the drain retires
        when the queue is empty."""
        queue = self._tx_queue
        while queue:
            frame = queue.popleft()
            link = self.link
            if link is not None:  # unplugged: frame vanishes
                link.transmit(self, frame, self._drain)
                return
        self._draining = False

    # -- receive path -----------------------------------------------------------

    @staticmethod
    def _is_broadcast(addr) -> bool:
        return addr == BROADCAST or addr == b"\xff" * 6

    def frame_on_wire(self, frame: Frame) -> None:
        """Medium delivered a frame to this NIC."""
        accepted = self.promiscuous or frame.dst_addr == self.address or \
            self._is_broadcast(frame.dst_addr)
        if self.taps is not None:
            self.taps.rx(frame, accepted)
        if not accepted:
            self.rx_filtered += 1
            return
        if self.rx_pending >= self.rx_ring_len:
            self.rx_drops += 1
            return
        self.rx_pending += 1
        self.engine.call_after(self.profile.rx_latency_us,
                               self._raise_interrupt, frame)

    def _raise_interrupt(self, frame: Frame) -> None:
        """The device's receive latency is over: interrupt the host (its
        own entry, as ring admission at ``frame_on_wire`` decided drops)."""
        self.rx_frames += 1
        self.rx_bytes += len(frame.data)
        self.host.frame_arrived(self, frame)

    def driver_recv_charges(self, frame: Frame) -> None:
        """Charge the CPU cost of pulling one frame out of the device.

        Called from the host's interrupt path (plain code).  Also retires
        the frame from the receive ring.
        """
        self.rx_pending -= 1
        profile = self.profile
        # cpu.charge inlined (exact body, exact order): interrupt path.
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            from .cpu import OUTSIDE_PATH, ChargeError
            raise ChargeError(OUTSIDE_PATH)
        times = cpu.category_times
        amount = profile.fixed_rx
        stack[-1] += amount
        times["driver"] += amount
        if profile.pio_rx_per_byte:
            amount = len(frame.data) * profile.pio_rx_per_byte
            stack[-1] += amount
            times["driver-pio"] += amount

    def __repr__(self) -> str:
        return "<%s %s addr=%s>" % (type(self).__name__, self.name, self.address)


class LanceEthernet(NIC):
    """10 Mb/s Lance Ethernet.  DMA-based but with a heavyweight driver."""

    mtu = 1500
    link_header = 14
    MIN_FRAME = 64

    STANDARD = DriverProfile(fixed_tx=75.0, fixed_rx=90.0, rx_latency_us=15.0)
    FAST = DriverProfile(fixed_tx=25.0, fixed_rx=28.0, rx_latency_us=10.0)

    def __init__(self, engine: Engine, name: str, address: Optional[str] = None,
                 fast_driver: bool = False, **kwargs):
        profile = self.FAST if fast_driver else self.STANDARD
        super().__init__(engine, name, address, profile=profile, **kwargs)

    def wire_bytes(self, frame_len: int) -> int:
        # Pad to the Ethernet minimum; add the 4-byte CRC + 8-byte preamble.
        return max(frame_len, self.MIN_FRAME) + 12


class ForeAtm(NIC):
    """Fore TCA-100 ATM on TurboChannel: 155 Mb/s wire, programmed I/O.

    Every byte in and out crosses the CPU one word at a time, so the per-
    byte PIO costs dominate and cap effective bandwidth well below the
    wire rate -- the paper measured at most ~53 Mb/s driver-to-driver.
    """

    mtu = 9180
    link_header = 8  # simplified AAL5 encapsulation header

    STANDARD = DriverProfile(fixed_tx=48.0, fixed_rx=53.0,
                             pio_tx_per_byte=0.10, pio_rx_per_byte=0.15,
                             rx_latency_us=8.0)
    FAST = DriverProfile(fixed_tx=22.0, fixed_rx=24.0,
                         pio_tx_per_byte=0.10, pio_rx_per_byte=0.15,
                         rx_latency_us=6.0)

    CELL_SIZE = 53
    CELL_PAYLOAD = 48

    def __init__(self, engine: Engine, name: str, address: Optional[str] = None,
                 fast_driver: bool = False, **kwargs):
        profile = self.FAST if fast_driver else self.STANDARD
        super().__init__(engine, name, address, profile=profile, **kwargs)

    def wire_bytes(self, frame_len: int) -> int:
        # AAL5: pad to a whole number of cells; each 48-byte payload chunk
        # rides in a 53-byte cell.
        cells = (frame_len + 8 + self.CELL_PAYLOAD - 1) // self.CELL_PAYLOAD
        return cells * self.CELL_SIZE


class T3Nic(NIC):
    """Experimental DEC T3 adapter: 45 Mb/s, DMA, minimal CPU involvement."""

    mtu = 4470
    link_header = 4

    STANDARD = DriverProfile(fixed_tx=42.0, fixed_rx=48.0, rx_latency_us=10.0)

    def __init__(self, engine: Engine, name: str, address: Optional[str] = None,
                 **kwargs):
        super().__init__(engine, name, address, profile=self.STANDARD, **kwargs)

    def wire_bytes(self, frame_len: int) -> int:
        return frame_len + 4  # light HDLC-style framing


class FabricNic(NIC):
    """Switch-fabric port adapter: 1 Gb/s class, DMA, lean cut-through
    driver.  Carries raw IP frames (no link header); used for both the
    edge-host uplinks and the switch ports of ``repro.fabric``
    topologies."""

    mtu = 9000
    link_header = 0

    STANDARD = DriverProfile(fixed_tx=4.0, fixed_rx=5.0, rx_latency_us=2.0)

    def __init__(self, engine: Engine, name: str, address: Optional[str] = None,
                 **kwargs):
        kwargs.setdefault("tx_queue_len", 256)
        kwargs.setdefault("rx_ring_len", 256)
        super().__init__(engine, name, address, profile=self.STANDARD, **kwargs)

    def wire_bytes(self, frame_len: int) -> int:
        return frame_len + 8  # preamble + inter-frame gap equivalent
