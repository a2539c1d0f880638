"""Sharded simulation: N independent engines, forked and merged.

A workload whose traffic splits into groups that never exchange a frame
(``many_flows`` / ``mega_flows``: each slice of flows gets its own
client/server bed) runs as N *shards*.  A shard is a plain
:class:`~repro.sim.engine.Engine` carrying its slice, built by a
picklable ``builder(index, n, spec)``; it is run until its event queue
is empty, must then report itself done, and hands back one picklable
result dict.  The caller merges the dicts (:func:`repro.bench.workloads.
run_partitioned`).

Nothing couples the shards -- no shared clock, no boundary frames, no
rounds -- so the executor is one fork and one merge:

* ``parallel=True`` forks one worker process per shard; each builds and
  runs its shard and sends the result (or its traceback) back over a
  pipe.  This is where the measured speed-up comes from.
* ``parallel=False`` builds and runs the shards one after another in
  this process, in index order.  It is the reference the forked run must
  match exactly, and the path ``n == 1`` always takes.

Each shard's event stream is a pure function of ``(index, n, spec)``, so
the two give equal results by construction, and the check has teeth.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Dict, List

from .engine import Engine, SimulationError

__all__ = ["Partition", "PartitionedSimulation"]


class Partition:
    """One shard, as its builder returns it.

    ``done`` is the local completion predicate (e.g. "the main workload
    process has finished"), checked once the engine has run dry;
    ``result`` then produces the shard's picklable result dict.
    """

    def __init__(self, engine: Engine, done: Callable[[], bool],
                 result: Callable[[], Dict[str, Any]]):
        self.engine = engine
        self.done = done
        self.result = result


def _run_shard(builder: Callable, index: int, n: int, spec) -> Dict[str, Any]:
    """Build shard ``index``, run it dry, require it done; its result."""
    shard = builder(index, n, spec)
    shard.engine.run()
    if not shard.done():
        raise SimulationError(
            "shard %d of %d is not done but no events are pending "
            "(deadlock at t=%r)" % (index, n, shard.engine.now))
    return shard.result()


def _shard_worker(conn, builder: Callable, index: int, n: int, spec) -> None:
    """Worker-process body (module-level so it pickles under spawn):
    send ``(True, result)`` or ``(False, (repr, traceback))``."""
    try:
        reply = (True, _run_shard(builder, index, n, spec))
    except Exception as exc:  # noqa: BLE001 - relayed to the parent
        reply = (False, (repr(exc), traceback.format_exc()))
    conn.send(reply)


class PartitionedSimulation:
    """Run ``n_partitions`` shards of one picklable builder to done.

    ``builder(index, n_partitions, spec)`` must be a module-level
    callable returning a :class:`Partition`; it runs once per shard --
    inside a forked worker, or in this process for ``parallel=False`` --
    and must construct *only* shard-local state (live engines and
    testbeds never cross process boundaries; ``spec`` does, so it must
    be plain data).

    :meth:`run` returns the per-shard result dicts in index order,
    identical either way.
    """

    def __init__(self, builder: Callable, n_partitions: int, spec=None,
                 parallel: bool = True):
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1, got %d" % n_partitions)
        self.builder = builder
        self.n_partitions = n_partitions
        self.spec = spec
        self.parallel = parallel

    def run(self) -> List[Dict[str, Any]]:
        n = self.n_partitions
        if self.parallel and n > 1:
            return self._run_forked()
        return [_run_shard(self.builder, index, n, self.spec)
                for index in range(n)]

    def _run_forked(self) -> List[Dict[str, Any]]:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        n = self.n_partitions
        workers = []
        try:
            for index in range(n):
                conn, child = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_worker,
                    args=(child, self.builder, index, n, self.spec),
                    name="repro-sim-shard-%d" % index, daemon=True)
                process.start()
                child.close()
                workers.append((process, conn))
            return [self._collect(index, process, conn)
                    for index, (process, conn) in enumerate(workers)]
        finally:
            for process, conn in workers:
                conn.close()
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10)

    @staticmethod
    def _collect(index: int, process, conn) -> Dict[str, Any]:
        """One worker's result; its failure, or its silent death (an OOM
        kill, a segfault, ``os._exit``), as a :class:`SimulationError`."""
        try:
            ok, payload = conn.recv()
        except EOFError:
            process.join(timeout=10)
            raise SimulationError(
                "shard %d worker exited without a result (exit code %r)"
                % (index, process.exitcode)) from None
        if not ok:
            raise SimulationError(
                "shard %d worker failed: %s\n%s" % ((index,) + payload))
        return payload
