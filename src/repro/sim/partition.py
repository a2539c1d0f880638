"""Conservative parallel simulation: partition engines + coordinator.

The testbed itself is sharded: hosts are assigned to *partitions*, each
partition owns a private :class:`PartitionEngine` (a full serial engine --
same :class:`~repro.sim.scheduler.SchedulerCore` scheduling code, same
event classes), and the only coupling between partitions is *boundary
channels* (see :class:`repro.hw.link.BoundaryChannel`): media whose two
halves live on different engines and whose ``propagation_us`` is the
**lookahead** of classic conservative (Chandy-Misra-Bryant style)
synchronization.

Synchronization is the bulk-synchronous safe-window variant.  Each round:

1. every partition reports its next pending event time and drains its
   outbox of cross-boundary frames (each stamped with its exact arrival
   time on the receiving engine);
2. the coordinator routes frames to their destination partitions and
   computes each partition's *effective* next time -- the earlier of its
   reported next event and any frame about to be injected into it;
3. each partition ``p`` gets a **receiver-specific** safe bound::

       bound[p] = min over q of (effective_next[q] + lookahead(q -> p))

   where ``lookahead(q -> p)`` is the cheapest boundary channel the two
   partitions share (``inf`` when they share none): no frame can reach
   ``p`` earlier than its sender's next event plus their cheapest
   connecting link, so every ``p``-local event strictly below
   ``bound[p]`` is causally safe.  Partitions the rest of the topology
   cannot reach (``bound == inf``) batch-drain all the way to local
   completion in one round.  The global-min bound PR 7 used is a lower
   bound of every ``bound[p]``, so windows only grow: far more events
   drain per coordinator barrier, which is what amortizes round cost;
4. every partition injects its routed frames (sorted by
   ``(arrival, channel, sender, seq)`` so injection order -- and hence
   engine sequence numbers -- is identical everywhere) and runs
   ``run_window(bound[p])``.

Progress is guaranteed because boundary lookahead is strictly positive
(zero-propagation boundary media are rejected at construction): the
partition holding the globally earliest pending event always has that
event strictly below its own bound, so every round processes at least
one event somewhere.

Two executors run the identical round algorithm:

* the **serial executor** keeps every partition in-process and iterates
  them in index order -- this is the bit-exactness oracle
  (``REPRO_SIM_PARALLEL=0``);
* the **parallel executor** forks one worker process per partition and
  drives the same rounds, overlapping the windows in wall time.  Its
  per-round data path is zero-pickle: boundary frames travel as
  ``struct``-packed records through per-partition
  :class:`~repro.sim.shm.FrameRing` shared-memory rings, and the pipes
  carry only fixed-size packed control headers.  Pickle is reserved for
  the one-time topology setup, the end-of-run result/metrics snapshot,
  and a counted per-round fallback when a round's frames exceed the
  ring (``REPRO_SIM_RING_KB``).

Each partition's event stream is a pure function of its initial state and
the sorted frame-injection sequence, and both executors feed every
partition byte-identical injections and bounds -- so their results are
equal by construction, and the oracle check has teeth.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .engine import Engine
from .scheduler import SimulationError
from .shm import FrameRing, decode_payload, encode_payload, ring_bytes

__all__ = [
    "Partition",
    "PartitionEngine",
    "PartitionedSimulation",
    "sim_parallel_enabled",
]

_FAR = float("inf")


def sim_parallel_enabled() -> bool:
    """False when ``REPRO_SIM_PARALLEL=0`` selects the serial oracle.

    Mirrors ``REPRO_FLOW_CACHE``: the parallel
    executor is on by default and the knob drops the *same* partitioned
    round algorithm onto the in-process serial executor, whose results
    the parallel ones must match bit-for-bit.
    """
    return os.environ.get("REPRO_SIM_PARALLEL", "1").lower() not in (
        "0", "false", "no", "off")


# Outbox / inbound frame tuples.  A partition emits
#   (arrival_time, channel_id, seq, payload)
# and the coordinator routes it to the destination as
#   (arrival_time, channel_id, sender_partition, seq, payload)
# -- the sort key that fixes injection order globally.


class PartitionEngine(Engine):
    """A partition-local serial engine with a cross-boundary mailbox.

    Identical to :class:`~repro.sim.engine.Engine` on the simulated
    timeline; adds the boundary-channel registry, the outbox that
    :meth:`send_boundary` fills during a window, and
    :meth:`inject_frames`, which the coordinator uses to deliver routed
    frames at their exact arrival timestamps before the next window.
    """

    def __init__(self, partition_index: int = 0):
        super().__init__()
        self.partition_index = partition_index
        self._channels: Dict[str, Any] = {}
        self.outbox: List[Tuple[float, str, int, Any]] = []
        self.frames_sent = 0
        self.frames_injected = 0

    def register_channel(self, channel) -> None:
        """Register one local half of a boundary channel.

        ``channel`` must expose ``channel_id`` (shared by both halves),
        ``lookahead_us`` (strictly positive), and ``deliver(payload)``.
        """
        channel_id = channel.channel_id
        if channel_id in self._channels:
            raise SimulationError(
                "boundary channel %r registered twice on partition %d"
                % (channel_id, self.partition_index))
        if not (channel.lookahead_us > 0.0):
            raise SimulationError(
                "boundary channel %r has no lookahead (propagation_us=%r)"
                % (channel_id, channel.lookahead_us))
        self._channels[channel_id] = channel

    @property
    def channels(self) -> Dict[str, Any]:
        return dict(self._channels)

    def min_lookahead_us(self) -> float:
        """The cheapest outbound boundary hop (``inf`` with no channels)."""
        if not self._channels:
            return _FAR
        return min(ch.lookahead_us for ch in self._channels.values())

    def send_boundary(self, channel_id: str, arrival_time: float, seq: int,
                      payload) -> None:
        """Queue a frame for the remote half of ``channel_id``.

        ``arrival_time`` is the absolute simulated instant the frame hits
        the remote engine (sender's ``now`` + propagation + impairment
        extra); it is carried verbatim so the receiving engine schedules
        the arrival at the bit-identical float.  ``payload`` should be
        plain bytes (see :func:`repro.sim.shm.pack_frame`) to ride the
        zero-pickle ring; any other picklable object still works through
        the counted fallback.
        """
        if arrival_time <= self.now:
            raise SimulationError(
                "boundary frame on %r arrives at %r, not after now=%r "
                "(zero-lookahead send?)" % (channel_id, arrival_time, self.now))
        self.frames_sent += 1
        self.outbox.append((arrival_time, channel_id, seq, payload))

    def take_outbox(self) -> List[Tuple[float, str, int, Any]]:
        out, self.outbox = self.outbox, []
        return out

    def inject_frames(self, frames: Sequence[Tuple]) -> None:
        """Schedule routed inbound frames at their exact arrival times.

        ``frames`` must already be in the coordinator's canonical
        ``(arrival, channel, sender, seq)`` order: injection claims engine
        sequence numbers, so this order is part of the determinism
        contract shared by both executors.
        """
        channels = self._channels
        call_at = self.call_at
        for arrival, channel_id, _sender, _seq, payload in frames:
            channel = channels[channel_id]
            self.frames_injected += 1
            call_at(arrival, _Injection(channel, payload))

    def register_metrics(self, registry) -> None:
        super().register_metrics(registry)
        registry.source("sim.partition.frames_sent", lambda: self.frames_sent)
        registry.source("sim.partition.frames_injected",
                        lambda: self.frames_injected)


class _Injection:
    """Deliver one boundary payload when its arrival event fires."""

    __slots__ = ("channel", "payload")

    def __init__(self, channel, payload):
        self.channel = channel
        self.payload = payload

    def __call__(self, _event) -> None:
        self.channel.deliver(self.payload)


class Partition:
    """One shard of a partitioned simulation, built inside its owner.

    ``done`` is the local completion predicate (e.g. "the main workload
    process has finished" or "the next event lies beyond the horizon");
    ``result`` produces the partition's picklable result dict once the
    coordinator declares the whole simulation finished.
    """

    def __init__(self, engine: PartitionEngine,
                 done: Callable[[], bool],
                 result: Callable[[], Dict[str, Any]]):
        if not isinstance(engine, PartitionEngine):
            raise TypeError("Partition requires a PartitionEngine, got %r"
                            % (engine,))
        self.engine = engine
        self.done = done
        self.result = result

    # -- the worker-side half of one synchronization round ----------------

    def report(self) -> Dict[str, Any]:
        engine = self.engine
        return {
            "next": engine.next_event_time(),
            "done": bool(self.done()),
            "outbox": engine.take_outbox(),
            "events": engine.events_processed,
            "lookahead": engine.min_lookahead_us(),
        }

    def initial_state(self) -> Dict[str, Any]:
        """Round-zero report plus the static channel topology."""
        state = self.report()
        state["channels"] = {
            channel_id: channel.lookahead_us
            for channel_id, channel in self.engine.channels.items()
        }
        return state

    def run_round(self, bound: float, frames: Sequence[Tuple]) -> None:
        engine = self.engine
        if frames:
            engine.inject_frames(frames)
        # bound == inf -- a partition the rest of the topology cannot
        # reach this round -- simply batch-drains every pending event
        # (strictly below inf), with no coordinator round-trips.
        engine.run_window(bound)


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

class _LocalHandle:
    """Serial-executor handle: the partition lives in this process."""

    def __init__(self, builder, index: int, n: int, spec):
        self.index = index
        self.partition = builder(index, n, spec)

    def initial_state(self):
        self._state = self.partition.initial_state()
        return self._state

    def setup(self, channel_ids, ring_size: int) -> None:
        pass

    def post_window(self, bound: float, frames) -> None:
        self.partition.run_round(bound, frames)
        self._state = self.partition.report()

    def wait_state(self):
        return self._state

    def finish(self):
        return self.partition.result()

    def close(self) -> None:
        pass


# -- the packed wire protocol ------------------------------------------------
#
# Coordinator -> worker, one message per round:
#   b"W" + _WINDOW(bound, n_ring, n_fallback) [+ pickled fallback frames]
#   b"T" + pickled (channel_ids, inbound_ring, outbound_ring, ring_size)
#   b"F"                                  (finish: send your result)
# Worker -> coordinator:
#   b"I" + pickled initial state          (once, includes channel topology)
#   b"S" + _STATE(next, done, events, n_ring, n_fallback) [+ pickle]
#   b"R" + pickled result dict            (end of run)
#   b"E" + pickled (repr, traceback)      (any failure)

_WINDOW = struct.Struct("<dII")
_STATE = struct.Struct("<dBQII")


def _partition_worker(conn, builder, index: int, n: int, spec) -> None:
    """Worker-process main loop (module-level so it pickles under spawn)."""
    import pickle
    import traceback

    inbound = outbound = None
    try:
        partition = builder(index, n, spec)
        engine = partition.engine
        conn.send_bytes(b"I" + pickle.dumps(partition.initial_state(),
                                            protocol=4))
        message = conn.recv_bytes()
        if message[:1] != b"T":
            raise RuntimeError("expected topology setup, got %r" % message[:1])
        channel_ids, in_name, out_name, ring_size = pickle.loads(message[1:])
        channel_index = {cid: i for i, cid in enumerate(channel_ids)}
        inbound = FrameRing(ring_size, name=in_name)
        outbound = FrameRing(ring_size, name=out_name)
        while True:
            message = conn.recv_bytes()
            op = message[:1]
            if op == b"W":
                bound, n_ring, n_fallback = _WINDOW.unpack_from(message, 1)
                if n_fallback:
                    # Fallback frames carry coordinator-opaque
                    # (kind, blob) payloads; decode here, as the ring
                    # path does.
                    frames = [
                        (arrival, channel_id, sender, seq,
                         decode_payload(kind, blob))
                        for arrival, channel_id, sender, seq, (kind, blob)
                        in pickle.loads(message[1 + _WINDOW.size:])
                    ]
                else:
                    frames = [
                        (arrival, channel_ids[channel_idx], sender, seq,
                         decode_payload(kind, blob))
                        for arrival, channel_idx, sender, seq, kind, blob
                        in inbound.pop(n_ring)
                    ]
                partition.run_round(bound, frames)
                next_time = engine.next_event_time()
                done = bool(partition.done())
                events = engine.events_processed
                records = []
                for arrival, channel_id, seq, payload in engine.take_outbox():
                    kind, blob = encode_payload(payload)
                    records.append((arrival, channel_index[channel_id],
                                    index, seq, kind, blob))
                if records and outbound.push_all(records):
                    conn.send_bytes(b"S" + _STATE.pack(
                        next_time, done, events, len(records), 0))
                elif records:
                    fallback = [
                        (arrival, channel_ids[channel_idx], seq, (kind, blob))
                        for arrival, channel_idx, _sender, seq, kind, blob
                        in records
                    ]
                    conn.send_bytes(
                        b"S" + _STATE.pack(next_time, done, events, 0,
                                           len(fallback))
                        + pickle.dumps(fallback, protocol=4))
                else:
                    conn.send_bytes(b"S" + _STATE.pack(
                        next_time, done, events, 0, 0))
            elif op == b"F":
                conn.send_bytes(b"R" + pickle.dumps(partition.result(),
                                                    protocol=4))
                return
            else:
                raise RuntimeError("unknown coordinator op %r" % (op,))
    except BaseException as exc:  # noqa: BLE001 - relay to the coordinator
        try:
            conn.send_bytes(b"E" + pickle.dumps(
                (repr(exc), traceback.format_exc()), protocol=4))
        except Exception:
            pass
    finally:
        for ring in (inbound, outbound):
            if ring is not None:
                ring.close()
        conn.close()


class _RemoteHandle:
    """Parallel-executor handle: the partition lives in a forked worker."""

    def __init__(self, context, builder, index: int, n: int, spec):
        import multiprocessing  # noqa: F401 - context supplied by caller
        self.index = index
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_partition_worker,
            args=(child, builder, index, n, spec),
            name="repro-sim-partition-%d" % index,
        )
        self.process.daemon = True
        self.process.start()
        child.close()
        self._state = None
        self._channel_ids: List[str] = []
        self._channel_index: Dict[str, int] = {}
        self._to_worker: Optional[FrameRing] = None
        self._from_worker: Optional[FrameRing] = None
        self.ring_fallbacks = 0

    def _recv_bytes(self, expected: bytes) -> bytes:
        import pickle
        message = self.conn.recv_bytes()
        op = message[:1]
        if op == b"E":
            error_repr, tb = pickle.loads(message[1:])
            raise SimulationError(
                "partition %d worker failed: %s\n%s"
                % (self.index, error_repr, tb))
        if op != expected:
            raise SimulationError(
                "partition %d protocol error: expected %r, got %r"
                % (self.index, expected, op))
        return message[1:]

    def initial_state(self):
        import pickle
        self._state = pickle.loads(self._recv_bytes(b"I"))
        return self._state

    def setup(self, channel_ids, ring_size: int) -> None:
        """Create this worker's rings and ship the channel index table."""
        import pickle
        self._channel_ids = list(channel_ids)
        self._channel_index = {cid: i for i, cid in
                               enumerate(self._channel_ids)}
        self._to_worker = FrameRing(ring_size)
        self._from_worker = FrameRing(ring_size)
        self.conn.send_bytes(b"T" + pickle.dumps(
            (self._channel_ids, self._to_worker.name, self._from_worker.name,
             ring_size), protocol=4))

    def post_window(self, bound: float, frames) -> None:
        import pickle
        # Inbound frames come from sibling workers, so their payloads are
        # already (kind, blob) pairs -- no re-encoding on the fast path.
        channel_index = self._channel_index
        records = [
            (arrival, channel_index[channel_id], sender, seq, kind, blob)
            for arrival, channel_id, sender, seq, (kind, blob) in frames
        ]
        if records and self._to_worker.push_all(records):
            self.conn.send_bytes(
                b"W" + _WINDOW.pack(bound, len(records), 0))
        elif records:
            self.ring_fallbacks += 1
            self.conn.send_bytes(
                b"W" + _WINDOW.pack(bound, 0, len(frames))
                + pickle.dumps(frames, protocol=4))
        else:
            self.conn.send_bytes(b"W" + _WINDOW.pack(bound, 0, 0))

    def wait_state(self):
        import pickle
        raw = self._recv_bytes(b"S")
        next_time, done, events, n_ring, n_fallback = _STATE.unpack_from(raw)
        if n_fallback:
            self.ring_fallbacks += 1
            outbox = pickle.loads(raw[_STATE.size:])
        else:
            # Payloads stay opaque bytes: the coordinator routes frames,
            # it never decodes them.
            channel_ids = self._channel_ids
            outbox = [
                (arrival, channel_ids[channel_idx], seq, (kind, blob))
                for arrival, channel_idx, _sender, seq, kind, blob
                in self._from_worker.pop(n_ring)
            ]
        self._state = {"next": next_time, "done": bool(done),
                       "events": events, "outbox": outbox}
        return self._state

    def finish(self):
        import pickle
        self.conn.send_bytes(b"F")
        return pickle.loads(self._recv_bytes(b"R"))

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=10)
        for ring in (self._to_worker, self._from_worker):
            if ring is not None:
                ring.close()
                ring.unlink()


class PartitionedSimulation:
    """Build N partitions from one picklable builder and run them to done.

    ``builder(index, n_partitions, spec)`` must be a module-level callable
    returning a :class:`Partition`; it runs once per partition -- in this
    process under the serial executor, inside a forked worker under the
    parallel one -- and must construct *only* partition-local state (live
    engines and testbeds never cross process boundaries; ``spec`` does,
    so it must be plain data).

    :meth:`run` returns the per-partition result dicts in index order,
    identical under both executors.
    """

    def __init__(self, builder: Callable, n_partitions: int, spec=None,
                 parallel: Optional[bool] = None):
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1, got %d" % n_partitions)
        self.builder = builder
        self.n_partitions = n_partitions
        self.spec = spec
        self.parallel = sim_parallel_enabled() if parallel is None else parallel
        self.rounds = 0
        self.frames_routed = 0
        self.ring_fallbacks = 0
        #: wall-clock seconds spent between posting windows and having
        #: every state back -- the per-round coordination cost the
        #: round-overhead microbench attributes.  Host-side only; never
        #: part of any deterministic result.
        self.barrier_wall_s = 0.0
        self.events_windowed = 0

    # -- routing ----------------------------------------------------------

    @staticmethod
    def _route_table(states) -> Dict[str, List[int]]:
        table: Dict[str, List[int]] = {}
        for index, state in enumerate(states):
            for channel_id, lookahead in state.get("channels", {}).items():
                table.setdefault(channel_id, []).append(index)
        return table

    @staticmethod
    def _lookahead_table(states, channel_table) -> List[List[float]]:
        """``la[q][p]``: cheapest channel from partition q into p.

        Static topology, built once from the round-zero states.  A
        two-owner channel connects its owners in both directions; a
        single-owner channel is a self-loop.  ``inf`` where two
        partitions share no channel -- those pairs never constrain each
        other's windows.
        """
        n = len(states)
        lookahead_by_id = {}
        for state in states:
            lookahead_by_id.update(state.get("channels", {}))
        table = [[_FAR] * n for _ in range(n)]
        for channel_id, owners in channel_table.items():
            lookahead = lookahead_by_id[channel_id]
            if len(owners) == 1:
                q = p = owners[0]
                table[q][p] = min(table[q][p], lookahead)
            else:
                q, p = owners[0], owners[1]
                table[q][p] = min(table[q][p], lookahead)
                table[p][q] = min(table[p][q], lookahead)
        return table

    def _route(self, states, channel_table: Dict[str, List[int]]):
        """Drain outboxes into per-partition inbound lists (sorted)."""
        inbound: List[List[Tuple]] = [[] for _ in range(self.n_partitions)]
        for sender, state in enumerate(states):
            for arrival, channel_id, seq, payload in state["outbox"]:
                owners = channel_table.get(channel_id)
                if not owners:
                    raise SimulationError(
                        "frame on unknown boundary channel %r" % channel_id)
                others = [p for p in owners if p != sender]
                if len(others) > 1:
                    raise SimulationError(
                        "boundary channel %r has %d remote halves"
                        % (channel_id, len(others)))
                target = others[0] if others else sender
                inbound[target].append(
                    (arrival, channel_id, sender, seq, payload))
                self.frames_routed += 1
        for frames in inbound:
            frames.sort(key=lambda f: (f[0], f[1], f[2], f[3]))
        return inbound

    # -- the one round algorithm (both executors) -------------------------

    def _coordinate(self, handles) -> List[Dict[str, Any]]:
        states = [handle.initial_state() for handle in handles]
        # The channel map is static topology; collect it from round zero.
        channel_table = self._route_table(states)
        lookahead = self._lookahead_table(states, channel_table)
        channel_ids = sorted(channel_table)
        ring_size = ring_bytes()
        for handle in handles:
            handle.setup(channel_ids, ring_size)
        n = self.n_partitions
        indices = range(n)
        events_before = [state.get("events", 0) for state in states]
        while True:
            inbound = self._route(states, channel_table)
            effective = []
            for index, state in enumerate(states):
                next_time = state["next"]
                if inbound[index]:
                    next_time = min(next_time, inbound[index][0][0])
                effective.append(next_time)
            pending = any(frames for frames in inbound)
            if not pending and all(state["done"] for state in states):
                break
            if all(t == _FAR for t in effective):
                stuck = [i for i, s in enumerate(states) if not s["done"]]
                raise SimulationError(
                    "parallel deadlock: partitions %r are not done but no "
                    "events or frames are pending anywhere" % (stuck,))
            self.rounds += 1
            # Earliest time each partition could possibly *act*, chain
            # reactions included: a partition with no local events can
            # still echo a frame we send it this window, so relax
            # E[p] = min(eff[p], E[q] + la[q][p]) to its fixed point
            # (Bellman-Ford over the positive-lookahead channel graph).
            earliest = list(effective)
            for _ in range(n - 1):
                changed = False
                for q in indices:
                    e_q = earliest[q]
                    if e_q == _FAR:
                        continue
                    row = lookahead[q]
                    for p in indices:
                        if row[p] == _FAR:
                            continue
                        candidate = e_q + row[p]
                        if candidate < earliest[p]:
                            earliest[p] = candidate
                            changed = True
                if not changed:
                    break
            wall0 = time.perf_counter()
            for index, handle in enumerate(handles):
                # No frame can arrive at `index` before the cheapest
                # (potential sender's earliest action + connecting hop).
                bound = min(earliest[q] + lookahead[q][index]
                            for q in indices)
                handle.post_window(bound, inbound[index])
            states = [handle.wait_state() for handle in handles]
            self.barrier_wall_s += time.perf_counter() - wall0
            for index, state in enumerate(states):
                events_now = state.get("events", events_before[index])
                self.events_windowed += events_now - events_before[index]
                events_before[index] = events_now
        for handle in handles:
            self.ring_fallbacks += getattr(handle, "ring_fallbacks", 0)
        return [handle.finish() for handle in handles]

    # -- round-overhead accounting ----------------------------------------

    def round_stats(self) -> Dict[str, float]:
        """Coordination-cost summary of a finished run.

        ``barrier_us_mean`` is host wall time per round across post +
        window + collect; with the serial executor it measures the same
        loop run sequentially, which is exactly the comparison the
        round-overhead microbench reports.
        """
        rounds = self.rounds
        return {
            "rounds": rounds,
            "frames_routed": self.frames_routed,
            "events": self.events_windowed,
            "events_per_round": (self.events_windowed / rounds
                                 if rounds else 0.0),
            "barrier_us_mean": (self.barrier_wall_s * 1e6 / rounds
                                if rounds else 0.0),
            "barrier_wall_s": self.barrier_wall_s,
            "ring_fallbacks": self.ring_fallbacks,
        }

    def register_metrics(self, registry) -> None:
        """Expose coordinator counters on a ``repro.obs`` registry.

        Deterministic counters (rounds, frames, events) plus the
        wall-clock barrier gauge the flamegraph profiler uses to
        attribute coordination cost.  Only microbench/profiling
        registries should attach here -- the barrier gauge is a host
        measurement and must never reach a gated metrics snapshot.
        """
        registry.source("sim.coord.rounds", lambda: self.rounds)
        registry.source("sim.coord.frames_routed", lambda: self.frames_routed)
        registry.source("sim.coord.events_windowed",
                        lambda: self.events_windowed)
        registry.source("sim.coord.ring_fallbacks",
                        lambda: self.ring_fallbacks)
        registry.source("sim.coord.barrier_us",
                        lambda: self.barrier_wall_s * 1e6)

    # -- executors --------------------------------------------------------

    def run(self) -> List[Dict[str, Any]]:
        if self.parallel and self.n_partitions > 1:
            return self._run_parallel()
        return self._run_serial()

    def _run_serial(self) -> List[Dict[str, Any]]:
        handles = [
            _LocalHandle(self.builder, index, self.n_partitions, self.spec)
            for index in range(self.n_partitions)
        ]
        try:
            return self._coordinate(handles)
        finally:
            for handle in handles:
                handle.close()

    def _run_parallel(self) -> List[Dict[str, Any]]:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        handles = []
        try:
            for index in range(self.n_partitions):
                handles.append(_RemoteHandle(
                    context, self.builder, index, self.n_partitions,
                    self.spec))
            return self._coordinate(handles)
        finally:
            for handle in handles:
                handle.close()
