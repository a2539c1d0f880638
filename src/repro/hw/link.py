"""Simulated network media: frames, shared segments, links, switches.

Three media models cover the paper's testbed (section 4):

* :class:`EthernetSegment` -- a shared 10 Mb/s half-duplex bus; every
  attached NIC sees every frame; the medium is a FIFO lane so
  concurrent senders serialize (CSMA collisions are abstracted into FIFO
  service, which preserves the bandwidth accounting that matters).
* :class:`PointToPointLink` -- full duplex, one NIC per end (the DEC T3
  adapters connected back-to-back).
* :class:`Switch` + :class:`SwitchPort` -- a store-and-forward switch with
  a fixed forwarding latency (the ForeRunner ATM switch).

Wire time is ``wire_bytes * 8 / bandwidth``; ``wire_bytes`` may exceed the
payload length (ATM cell padding -- the NIC computes it).

Media run on heap callbacks, not processes: ``transmit(sender, frame,
done)`` calls ``done()`` when the sending NIC may start its next frame,
and what a callback raises (a receiver's bug) leaves ``engine.step``.
A clean hop is one entry, its landing pushed when the frame starts; a
wire-end entry stays only where something happens there (an impaired
lane's draws, the bus's hand-off).
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from heapq import heappush
from math import inf
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim import Engine
from .alpha import MICROSECONDS_PER_SECOND

__all__ = ["Frame", "EthernetSegment", "PointToPointLink", "Switch", "SwitchPort",
           "BROADCAST", "ImpairmentConfig", "ImpairmentModel"]

#: Link-level broadcast address.
BROADCAST = "ff:ff:ff:ff:ff:ff"


class Frame:
    """A link-level frame in flight.

    ``data`` is the full frame byte string (link header included).
    ``dst_addr``/``src_addr`` are link-level addresses used by the medium
    for delivery; they duplicate information inside ``data`` so that the
    hardware layer never parses protocol headers.  ``wire_bytes`` is the
    number of bytes that actually occupy the wire (cell padding etc.).
    """

    __slots__ = ("data", "src_addr", "dst_addr", "wire_bytes")

    def __init__(self, data: bytes, src_addr: str, dst_addr: str,
                 wire_bytes: Optional[int] = None):
        self.data = bytes(data)
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.wire_bytes = wire_bytes if wire_bytes is not None else len(self.data)

    def __repr__(self) -> str:
        return "<Frame %s->%s len=%d>" % (self.src_addr, self.dst_addr, len(self.data))


def transmission_time_us(wire_bytes: int, bandwidth_bps: float) -> float:
    return wire_bytes * 8.0 / bandwidth_bps * MICROSECONDS_PER_SECOND


@dataclasses.dataclass(frozen=True)
class ImpairmentConfig:
    """Declarative description of everything wrong with one wire.

    The config is pure data: together with a seed it fully determines the
    behaviour of an :class:`ImpairmentModel`, so any chaos run is
    replayable from ``(seed, config)`` alone.  All probabilities are
    per-frame.

    Loss is the Gilbert-Elliott two-state Markov model: the wire is in a
    GOOD or BAD state; each frame first drives one state transition
    (``p_good_bad`` / ``p_bad_good``), then is lost with the current
    state's loss probability (``loss_good`` / ``loss_bad``).  Independent
    loss is the degenerate config ``loss_good == loss_bad``.

    ``flaps`` is a schedule of ``(down_at_us, up_at_us)`` windows in
    simulated time during which the link is hard down (every frame
    offered to the wire is dropped and counted separately from
    stochastic loss).
    """

    loss_good: float = 0.0        # loss probability in the GOOD state
    loss_bad: float = 0.0         # loss probability in the BAD state
    p_good_bad: float = 0.0       # per-frame GOOD -> BAD transition prob.
    p_bad_good: float = 1.0       # per-frame BAD -> GOOD transition prob.
    corrupt_rate: float = 0.0     # single-bit flip probability
    duplicate_rate: float = 0.0   # probability a frame is delivered twice
    duplicate_gap_us: float = 200.0   # extra delay of the duplicate copy
    reorder_rate: float = 0.0     # probability a frame is held back
    reorder_hold_us: float = 750.0    # how long a held frame is delayed
    jitter_us: float = 0.0        # uniform [0, jitter_us) extra delay
    bandwidth_scale: float = 1.0  # throttle: effective bw = bw * scale
    flaps: Tuple[Tuple[float, float], ...] = ()   # ((down_us, up_us), ...)

    def validate(self) -> None:
        for name in ("loss_good", "loss_bad", "p_good_bad", "corrupt_rate",
                     "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError("%s must be in [0, 1), got %r" % (name, rate))
        if not 0.0 < self.p_bad_good <= 1.0:
            raise ValueError("p_bad_good must be in (0, 1], got %r"
                             % (self.p_bad_good,))
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ValueError("bandwidth_scale must be in (0, 1], got %r"
                             % (self.bandwidth_scale,))
        for name in ("duplicate_gap_us", "reorder_hold_us", "jitter_us"):
            if not 0.0 <= getattr(self, name) < inf:
                raise ValueError("%s must be finite and non-negative" % name)
        for window in self.flaps:
            down, up = window
            if not down < up:
                raise ValueError("flap window %r must satisfy down < up"
                                 % (window,))

    def to_dict(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        record["flaps"] = [list(window) for window in self.flaps]
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ImpairmentConfig":
        record = dict(record)
        record["flaps"] = tuple(tuple(window)
                                for window in record.get("flaps", ()))
        return cls(**record)


class ImpairmentModel:
    """Seeded, composable network impairments for one medium.

    One :class:`random.Random` stream drives every stochastic decision in
    a *fixed, documented draw order* per frame -- flap check (no draw),
    Gilbert-Elliott transition + loss, corruption, reorder hold, jitter,
    duplication -- so a run is bit-replayable from ``(seed, config)``.
    """

    def __init__(self, config: ImpairmentConfig, seed: int = 1996):
        config.validate()
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed)
        self.bad_state = False
        # Counters (the attached medium mirrors these into its own).
        self.offered = 0
        self.lost = 0
        self.flap_dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0

    def apply(self, now: float, frame: Frame) -> List[Tuple[float, Frame]]:
        """Decide one frame's fate; returns ``[(extra_delay_us, frame)...]``.

        An empty list means the frame was dropped (flap or loss); two
        entries mean it was duplicated.  ``extra_delay_us`` is added to
        the medium's propagation delay for that delivery.
        """
        config = self.config
        rng = self.rng
        self.offered += 1
        if any(down <= now < up for down, up in config.flaps):
            self.flap_dropped += 1
            return []
        if config.p_good_bad or config.loss_good or config.loss_bad:
            if self.bad_state:
                if rng.random() < config.p_bad_good:
                    self.bad_state = False
            elif config.p_good_bad and rng.random() < config.p_good_bad:
                self.bad_state = True
            rate = config.loss_bad if self.bad_state else config.loss_good
            if rate and rng.random() < rate:
                self.lost += 1
                return []
        if config.corrupt_rate and rng.random() < config.corrupt_rate:
            self.corrupted += 1
            data = bytearray(frame.data)
            index = rng.randrange(len(data))
            data[index] ^= 1 << rng.randrange(8)
            frame = Frame(bytes(data), frame.src_addr, frame.dst_addr,
                          wire_bytes=frame.wire_bytes)
        extra = 0.0
        if config.reorder_rate and rng.random() < config.reorder_rate:
            self.reordered += 1
            extra += config.reorder_hold_us
        if config.jitter_us:
            extra += rng.random() * config.jitter_us
        outcomes = [(extra, frame)]
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            self.duplicated += 1
            outcomes.append((extra + config.duplicate_gap_us, frame))
        return outcomes

    def counters(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "lost": self.lost,
            "flap_dropped": self.flap_dropped,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
        }

    def __repr__(self) -> str:
        return "<ImpairmentModel seed=%d offered=%d lost=%d>" % (
            self.seed, self.offered, self.lost)


class _Medium:
    """Common attach bookkeeping plus fault injection.

    One fault layer, deterministic: ``set_impairments(config, seed)``
    arms the composable :class:`ImpairmentModel` (independent or bursty
    loss, corruption, reordering, duplication, jitter, throttling, link
    flaps) that ``repro.chaos``, the impaired latency probe and the
    examples all use.
    """

    def __init__(self, engine: Engine, bandwidth_bps: float,
                 propagation_us: float = 1.0):
        # A landing is pushed in place, unchecked: its delays are checked here.
        if not (bandwidth_bps > 0 and 0.0 <= propagation_us < inf):
            raise ValueError("bandwidth must be positive, propagation finite and non-negative")
        self.engine = engine
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.nics: List[Any] = []
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_lost = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_flap_dropped = 0
        self.frames_delivered = 0   # frame_on_wire / switch hand-offs made
        self._impairments: Optional[ImpairmentModel] = None

    def attach(self, nic) -> None:
        self.nics.append(nic)
        nic.link = self

    def set_impairments(self, config: Optional[ImpairmentConfig],
                        seed: int = 1996) -> Optional[ImpairmentModel]:
        """Arm the composable impairment model (``config=None`` disarms).

        Returns the armed :class:`ImpairmentModel` so callers can read
        its counters.  Re-arming replaces the model (and its RNG stream)
        wholesale.  A lane (point-to-point, NIC -> switch) decides at
        transmit that a frame is clean, so a model armed mid-flight
        applies from the next frame that starts: arm before traffic.
        """
        if config is None:
            self._impairments = None
            return None
        self._impairments = ImpairmentModel(config, seed)
        return self._impairments

    def _wire_time_us(self, wire_bytes: int) -> float:
        """Transmission time, honoring any impairment-model throttle."""
        model = self._impairments
        if model is not None and model.config.bandwidth_scale != 1.0:
            return transmission_time_us(
                wire_bytes, self.bandwidth_bps * model.config.bandwidth_scale)
        return wire_bytes * 8.0 / self.bandwidth_bps * MICROSECONDS_PER_SECOND

    def _impaired_outcomes(self, frame: Frame) -> List:
        """Run the impairment model; mirror its verdict into counters."""
        model = self._impairments
        lost0 = model.lost
        flap0 = model.flap_dropped
        corrupt0 = model.corrupted
        dup0 = model.duplicated
        reorder0 = model.reordered
        outcomes = model.apply(self.engine.now, frame)
        self.frames_lost += model.lost - lost0
        self.frames_flap_dropped += model.flap_dropped - flap0
        self.frames_corrupted += model.corrupted - corrupt0
        self.frames_duplicated += model.duplicated - dup0
        self.frames_reordered += model.reordered - reorder0
        return outcomes

    def delivery_fanout(self) -> int:
        """Receivers per surviving frame (broadcast media override)."""
        return 1

    def expected_deliveries(self) -> int:
        """Deliveries implied by the counters (frame-conservation law)."""
        return (self.frames_carried - self.frames_lost
                - self.frames_flap_dropped
                + self.frames_duplicated) * self.delivery_fanout()

    def fault_counters(self) -> Dict[str, int]:
        return {
            "frames_carried": self.frames_carried,
            "bytes_carried": self.bytes_carried,
            "frames_lost": self.frames_lost,
            "frames_corrupted": self.frames_corrupted,
            "frames_duplicated": self.frames_duplicated,
            "frames_reordered": self.frames_reordered,
            "frames_flap_dropped": self.frames_flap_dropped,
            "frames_delivered": self.frames_delivered,
        }

    # -- landings ----------------------------------------------------------

    def _deliver(self, flight: Tuple) -> None:
        """A frame lands: ``flight`` is ``(sink, frame, done)``, and a
        ``done`` that is not None lets the sender go on."""
        sink, frame, done = flight
        self.frames_delivered += 1
        sink(frame)
        if done is not None:
            done()

    # -- a lane with one sender: point-to-point and switch-port uplinks ----

    def _send_on_lane(self, sink, frame: Frame,
                      done: Callable[[], None]) -> None:
        """Wire time, then propagation, then ``done()``: the lane is one
        NIC's, whose drain sends a frame at a time, so nothing arbitrates
        it and a clean landing is pushed now.  An impaired frame is judged
        at wire end and frees the sender once its copies are due."""
        engine = self.engine
        if self._impairments is None:
            self.frames_carried += 1
            self.bytes_carried += frame.wire_bytes
            engine._sequence += 1
            heappush(engine._heap, (
                (engine.now + frame.wire_bytes * 8.0 / self.bandwidth_bps
                 * MICROSECONDS_PER_SECOND) + self.propagation_us,
                engine._sequence, self._deliver, (sink, frame, done)))
            return
        engine.call_after(self._wire_time_us(frame.wire_bytes),
                          self._lane_sent, (sink, frame, done))

    def _lane_sent(self, flight: Tuple) -> None:
        sink, frame, done = flight
        self.frames_carried += 1
        self.bytes_carried += frame.wire_bytes
        if self._impairments is not None:
            for extra_us, copy in self._impaired_outcomes(frame):
                self.engine.call_after(self.propagation_us + extra_us,
                                       self._deliver, (sink, copy, None))
            done()
            return
        self.engine.call_after(self.propagation_us, self._deliver, flight)


class EthernetSegment(_Medium):
    """Shared half-duplex bus: one transmission at a time, broadcast.

    The bus is a FIFO lane: a flight that finds it busy waits in
    ``_waiting``.  It keeps its wire-end entry, where the bus is handed
    to the next flight."""

    def __init__(self, engine: Engine, bandwidth_bps: float = 10e6,
                 propagation_us: float = 3.0):
        super().__init__(engine, bandwidth_bps, propagation_us)
        self._busy = False
        self._waiting: Deque[Tuple] = deque()

    def delivery_fanout(self) -> int:
        return len(self.nics) - 1

    def transmit(self, sender, frame: Frame,
                 done: Callable[[], None]) -> None:
        """Occupy the bus for the frame's wire time, deliver, ``done()``.
        A clean bus pushes its wire end in place, at ``_occupy``'s float."""
        flight = (sender, frame, done)
        if self._busy:
            self._waiting.append(flight)
            return
        self._busy = True
        if self._impairments is not None:
            self._occupy(flight)
            return
        engine = self.engine
        engine._sequence += 1
        heappush(engine._heap, (
            engine.now + frame.wire_bytes * 8.0 / self.bandwidth_bps
            * MICROSECONDS_PER_SECOND, engine._sequence, self._bus_sent, flight))

    def _occupy(self, flight: Tuple) -> None:
        self.engine.call_after(self._wire_time_us(flight[1].wire_bytes),
                               self._bus_sent, flight)

    def _bus_sent(self, flight: Tuple) -> None:
        sender, frame, done = flight
        # The next flight starts in a zero-delay entry pushed before the
        # landings, so it runs behind whatever is already due now.
        if self._waiting:
            self.engine.call_after(0.0, self._occupy, self._waiting.popleft())
        else:
            self._busy = False
        self.frames_carried += 1
        self.bytes_carried += frame.wire_bytes
        if self._impairments is not None:
            outcomes = self._impaired_outcomes(frame)
        else:
            outcomes = ((0.0, frame),)
        engine = self.engine
        for extra_us, copy in outcomes:
            when = engine.now + (self.propagation_us + extra_us)
            for nic in self.nics:
                if nic is not sender:
                    engine._sequence += 1
                    heappush(engine._heap, (when, engine._sequence, self._deliver,
                                            (nic.frame_on_wire, copy, None)))
        done()


class PointToPointLink(_Medium):
    """Full-duplex point-to-point wire (exactly two NICs)."""

    def attach(self, nic) -> None:
        if len(self.nics) >= 2:
            raise ValueError("point-to-point link already has two endpoints")
        super().attach(nic)

    def transmit(self, sender, frame: Frame,
                 done: Callable[[], None]) -> None:
        """The sender's direction of the wire (its own lane), toward the
        other end (a link with one end attached raises ValueError)."""
        first, second = self.nics
        peer = second if sender is first else first
        self._send_on_lane(peer.frame_on_wire, frame, done)


class SwitchPort(_Medium):
    """One full-duplex port wire between a NIC and a :class:`Switch`."""

    def __init__(self, engine: Engine, switch: "Switch", bandwidth_bps: float,
                 propagation_us: float = 1.0):
        super().__init__(engine, bandwidth_bps, propagation_us)
        self.switch = switch
        self._lane_free_at = 0.0       # when the switch -> NIC lane idles
        self.frames_forwarded_in = 0   # switch -> NIC deliveries (not impaired)

    def attach(self, nic) -> None:
        if self.nics:
            raise ValueError("switch port already attached")
        super().attach(nic)
        self.switch.register(nic, self)

    def transmit(self, sender, frame: Frame,
                 done: Callable[[], None]) -> None:
        """NIC -> switch direction (impairments apply here)."""
        self._send_on_lane(self.switch.accept, frame, done)

    def _egress(self, frame: Frame, ready_at: float) -> None:
        """Switch -> NIC direction (clean: the switch already paid the
        port).  Every frame forwarded to the port shares this lane."""
        free_at = self._lane_free_at
        start = free_at if free_at > ready_at else ready_at     # max(), no call
        self._lane_free_at = free_at = start + (
            frame.wire_bytes * 8.0 / self.bandwidth_bps * MICROSECONDS_PER_SECOND)
        engine = self.engine
        engine._sequence += 1
        heappush(engine._heap, (free_at + self.propagation_us, engine._sequence,
                                self._forward_landed, frame))

    def _forward_landed(self, frame: Frame) -> None:
        self.frames_forwarded_in += 1
        self.nics[0].frame_on_wire(frame)


class Switch:
    """Store-and-forward switch with a fixed per-frame forwarding latency.

    A frame is routed on arrival and booked on each egress lane, a FIFO
    with deterministic service: ``start = max(now + forward_latency_us,
    free_at)``, ``free_at = start + wire``, landing at ``free_at +
    propagation_us`` -- one entry, at the float a relay per delay would
    reach (``tests/test_engine_diet.py`` keeps those relays as oracle)."""

    def __init__(self, engine: Engine, bandwidth_bps: float = 155e6,
                 forward_latency_us: float = 10.0, name: str = "switch"):
        if not 0.0 <= forward_latency_us < inf:
            raise ValueError("forward latency must be finite and non-negative")
        self.engine = engine
        self.bandwidth_bps = bandwidth_bps
        self.forward_latency_us = forward_latency_us
        self.name = name
        self._ports: Dict[str, SwitchPort] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0

    @property
    def ports(self) -> List[SwitchPort]:
        return list(self._ports.values())

    def new_port(self, propagation_us: float = 1.0) -> SwitchPort:
        return SwitchPort(self.engine, self, self.bandwidth_bps, propagation_us)

    def register(self, nic, port: SwitchPort) -> None:
        self._ports[nic.address] = port

    def accept(self, frame: Frame) -> None:
        """Route ``frame`` and book it on its egress lane(s)."""
        ready_at = self.engine.now + self.forward_latency_us
        port = self._ports.get(frame.dst_addr)
        if port is not None:
            self.frames_forwarded += 1
            port._egress(frame, ready_at)
            return
        # Unknown or broadcast destination: flood all ports except source.
        self.frames_flooded += 1
        for addr, out_port in self._ports.items():
            if addr != frame.src_addr:
                out_port._egress(frame, ready_at)
