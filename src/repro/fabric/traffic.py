"""Open-loop traffic generation: arrivals that do not wait for replies.

An :class:`OpenLoopSource` draws inter-departure gaps and datagram sizes
from a private ``random.Random(seed)`` stream, so a schedule is a pure
function of (seed, parameters, n): replaying the same seed yields the
bit-identical schedule, on any host or process.
The source only *plans* -- callers turn the (gap, size) list into engine
processes -- which keeps the statistical model testable without any
simulated machinery behind it.

Arrival processes:

* ``poisson`` -- exponential gaps with mean ``mean_gap_us``,
* ``pareto``  -- heavy-tailed Pareto gaps, normalised so the mean gap is
  still ``mean_gap_us`` (shape ``arrival_alpha`` must exceed 1 for the
  mean to exist).

Size distributions: ``fixed`` (every datagram is ``fixed_size`` bytes)
or ``pareto`` (Pareto-tailed from ``min_size``, clamped to
``max_size``).
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = ["OpenLoopSource", "ARRIVALS", "SIZE_DISTS"]

ARRIVALS = ("poisson", "pareto")
SIZE_DISTS = ("fixed", "pareto")


class OpenLoopSource:
    """A seeded open-loop schedule of (gap_us, size_bytes) departures."""

    def __init__(self, seed: int, arrival: str = "poisson",
                 mean_gap_us: float = 100.0, arrival_alpha: float = 1.5,
                 size_dist: str = "fixed", fixed_size: int = 256,
                 min_size: int = 32, max_size: int = 1400,
                 size_alpha: float = 1.3):
        if arrival not in ARRIVALS:
            raise ValueError("arrival must be one of %s" % (ARRIVALS,))
        if size_dist not in SIZE_DISTS:
            raise ValueError("size_dist must be one of %s" % (SIZE_DISTS,))
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        if arrival == "pareto" and arrival_alpha <= 1.0:
            raise ValueError("Pareto arrivals need alpha > 1 (finite mean)")
        if not 0 < min_size <= max_size:
            raise ValueError("need 0 < min_size <= max_size")
        self.seed = seed
        self.arrival = arrival
        self.mean_gap_us = float(mean_gap_us)
        self.arrival_alpha = float(arrival_alpha)
        self.size_dist = size_dist
        self.fixed_size = int(fixed_size)
        self.min_size = int(min_size)
        self.max_size = int(max_size)
        self.size_alpha = float(size_alpha)

    def _rng(self) -> random.Random:
        return random.Random(self.seed)

    def _gap(self, rng: random.Random) -> float:
        if self.arrival == "poisson":
            return rng.expovariate(1.0 / self.mean_gap_us)
        # Pareto(alpha) has mean alpha/(alpha-1); scale back to mean_gap_us.
        scale = self.mean_gap_us * (self.arrival_alpha - 1.0) \
            / self.arrival_alpha
        return rng.paretovariate(self.arrival_alpha) * scale

    def _size(self, rng: random.Random) -> int:
        if self.size_dist == "fixed":
            return self.fixed_size
        size = int(self.min_size * rng.paretovariate(self.size_alpha))
        return min(size, self.max_size)

    def schedule(self, n: int) -> List[Tuple[float, int]]:
        """The first ``n`` departures as (gap_us, size_bytes) pairs.

        Gap and size are drawn pairwise from one stream, so the schedule
        for ``n`` packets is a prefix of the schedule for ``n + k``.
        """
        rng = self._rng()
        return [(self._gap(rng), self._size(rng)) for _ in range(n)]
