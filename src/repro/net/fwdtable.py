"""Longest-prefix-match forwarding table shared by IP and the fabric.

Historically ``repro.net.ip.IpProto`` carried its own route list and the
match-action fabric would have grown a second one; both now sit on this
single implementation so prefix semantics (longest wins, insertion order
breaks ties) cannot drift between the host stack and the switch data
plane.

The table maps ``network/prefix_len`` to an arbitrary ``value`` --
``IpProto`` stores ``(adapter, gateway)`` pairs, ``repro.fabric`` stores
action descriptors.  Lookups are memoised per destination; any mutation
(add/remove) drops the memo.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ForwardingTable", "prefix_mask"]


def prefix_mask(prefix_len: int) -> int:
    """Network mask for a /prefix_len, as a 32-bit int."""
    if prefix_len == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF


class ForwardingTable:
    """LPM table: ``add(network, prefix_len, value)`` / ``lookup(dst)``.

    Matching is longest-prefix-first; among routes of equal length the
    earliest installed wins (stable sort, exactly the semantics the old
    in-``IpProto`` list had).  ``lookup`` returns the stored value or
    ``None`` on a miss -- the *caller* owns default-route policy.
    """

    __slots__ = ("_routes", "_cache")

    def __init__(self) -> None:
        #: (network, prefix_len, value), longest prefix first, stable
        self._routes: List[Tuple[int, int, Any]] = []
        self._cache: Dict[int, Tuple[Any]] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def add(self, network: int, prefix_len: int, value: Any) -> None:
        """Install ``network/prefix_len -> value``."""
        if not 0 <= prefix_len <= 32:
            raise ValueError("prefix length must be 0..32")
        self._routes.append((network & prefix_mask(prefix_len), prefix_len,
                             value))
        # Timsort is stable: repeated append+sort preserves insertion
        # order within one prefix length across any number of adds.
        self._routes.sort(key=lambda route: -route[1])
        self._cache.clear()

    def remove(self, network: int, prefix_len: int) -> bool:
        """Withdraw the first route matching (network, prefix_len)."""
        network &= prefix_mask(prefix_len)
        for index, (net, plen, _value) in enumerate(self._routes):
            if net == network and plen == prefix_len:
                del self._routes[index]
                self._cache.clear()
                return True
        return False

    def lookup(self, dst: int) -> Optional[Any]:
        """Stored value for the longest prefix covering ``dst`` (or None)."""
        hit = self._cache.get(dst)
        if hit is not None:
            return hit[0]
        value = None
        for network, prefix_len, candidate in self._routes:
            if (dst & prefix_mask(prefix_len)) == network:
                value = candidate
                break
        # Memoise misses too (wrapped in a 1-tuple so None is cacheable).
        self._cache[dst] = (value,)
        return value
