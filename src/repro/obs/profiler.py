"""Simulated-CPU profiler: attribute every charged cycle to a stack.

How interception works
----------------------

The cost-charging discipline funnels *every* charge -- including the
hand-inlined hot-path variants in the dispatcher, generated code, the
mbuf pool, the NIC drivers, the ``net`` layers and the host's interrupt
body -- through one form::

    cpu.category_times[category] += microseconds

``category_times`` is a :class:`~repro.hw.cpu.CategoryTimes`, which reads
an uncharged category as ``0.0``, and the ``+=`` stores through
``__setitem__``; so while a :class:`~repro.obs.taps.CpuHook` is installed
``category_times`` is a recording subclass that books every charged
microsecond, without touching any call site, under the frame stack open
at that moment.
Stack *frames* come from the ``cpu.profile`` seam itself, consulted by
``KernelPath`` (the domain: interrupt body, syscall, timer callback)
and the dispatcher raise paths (the component: event name).  The
profiler hears no charge: its stacks are a read-time fold over its
hooks' tables (so they cover each hook's lifetime) and ``on_consume``
is the one event it listens to.  With no
observer attached ``cpu.profile`` is ``None`` and ``category_times`` a
plain ``CategoryTimes`` -- the hot path is unchanged and simulated time is
bit-identical (``tests/test_obs.py`` enforces this).

Attribution is therefore ``(host, domain, component..., operation)``
where the operation is the charge category (``checksum``, ``dispatch``,
``copy``, ``driver``, ...).  :meth:`CpuProfiler.folded_text` emits the
Brendan Gregg folded-stack format (one ``frame;frame;... value`` line
per stack, values in integer nanoseconds of simulated time) accepted by
``flamegraph.pl``, speedscope, and friends.

Exactness
---------

Per-category totals (:meth:`CpuProfiler.categories`) are read from the
live ``category_times`` dicts, so they are *bit-exact* -- every charged
microsecond is attributed.  :meth:`CpuProfiler.consumed_us` folds the
per-path consumption amounts in the same order ``CPU.busy_time`` does,
so it equals the summed busy time bit-exactly as well.  (The grand
total of the categories and the busy time differ in the last float bit
or two because they associate the same additions differently.)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .taps import CpuHook, Observer

__all__ = ["CpuProfiler"]


def _sanitize(label: str) -> str:
    """Folded-format frame labels may not contain ';' or whitespace."""
    return label.replace(";", ":").replace(" ", "_")


class CpuProfiler(Observer):
    """Attributes charged simulated CPU time to (host, frames..., category).

    Usage::

        profiler = CpuProfiler()
        profiler.attach(bed.hosts)
        ... run the workload ...
        profiler.detach()
        open("out.folded", "w").write(profiler.folded_text())
    """

    def __init__(self):
        #: every hook joined, in attach order; their tables are the stacks
        self._hooks: List[CpuHook] = []
        #: consumed microseconds per CPU, however many hooks it has had
        self._consumed: Dict[object, float] = {}

    # -- lifecycle -------------------------------------------------------

    def attach(self, hosts) -> "CpuProfiler":
        super().attach(hosts)
        for hook in self._seams:
            if hook not in self._hooks:
                self._hooks.append(hook)
                self._consumed.setdefault(hook.cpu, 0.0)
        return self

    # -- listener interface (cpu.profile) --------------------------------

    def on_consume(self, hook: CpuHook, amount: float) -> None:
        # Folded in the exact order CPU.busy_time accumulates, so the
        # per-host totals reconcile bit-exactly against busy_time.
        self._consumed[hook.cpu] += amount

    # -- results ---------------------------------------------------------

    @property
    def stacks(self) -> Dict[Tuple[str, ...], float]:
        """``(host, frame, ..., category) -> charged microseconds`` over the
        lifetime of every hook joined, folded from the hooks' tables."""
        stacks: Dict[Tuple[str, ...], float] = {}
        for hook in self._hooks:
            for path, cell in hook.cells.items():
                for category, amount in cell.items():
                    key = path + (category,)
                    stacks[key] = stacks.get(key, 0.0) + amount
        return stacks

    def categories(self) -> Dict[str, float]:
        """Per-category charged totals, bit-exact, summed across hosts."""
        totals: Dict[str, float] = {}
        for cpu in self._consumed:
            for category, value in cpu.category_times.items():
                totals[category] = totals.get(category, 0.0) + value
        return totals

    def consumed_us(self) -> float:
        """Total consumed CPU time; bit-equal to the summed busy_time."""
        total = 0.0
        for consumed in self._consumed.values():
            total += consumed
        return total

    def busy_us(self) -> float:
        """The CPUs' own busy_time sum (the engine-reported number)."""
        total = 0.0
        for cpu in self._consumed:
            total += cpu.busy_time
        return total

    def folded_lines(self) -> List[str]:
        """Folded-stack lines, sorted; values are simulated nanoseconds."""
        lines = []
        for key, amount in sorted(self.stacks.items()):
            nanoseconds = round(amount * 1000.0)
            if nanoseconds <= 0:
                continue
            lines.append("%s %d" % (";".join(_sanitize(part) for part in key), nanoseconds))
        return lines

    def folded_text(self) -> str:
        return "\n".join(self.folded_lines()) + "\n"

    def report(self) -> Dict:
        """JSON-able summary: per-host busy/consumed plus category totals."""
        hosts = {}
        for hook in self._hooks:
            cpu = hook.cpu
            hosts[hook.host_name] = {
                "busy_us": cpu.busy_time,
                "consumed_us": self._consumed[cpu],
                "uncontexted_charge_us": cpu.uncontexted_charge_us,
                "categories": dict(sorted(cpu.category_times.items())),
            }
        return {
            "hosts": hosts,
            "categories": dict(sorted(self.categories().items())),
            "busy_us": self.busy_us(),
            "consumed_us": self.consumed_us(),
        }
