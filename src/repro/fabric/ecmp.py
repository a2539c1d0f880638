"""Deterministic seeded ECMP: hash the canonical 5-tuple, pick a port.

Python's builtin ``hash`` is randomized per process, so it can never
appear in a simulation result.  ECMP choices here come from BLAKE2b
keyed by the fabric's seed over the packed 5-tuple -- the same
(seed, 5-tuple) always selects the same member, across runs and
processes.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["ecmp_select"]

_KEY_STRUCT = struct.Struct(">IIIHH")


def ecmp_select(seed: int, proto: int, src_ip: int, dst_ip: int,
                src_port: int, dst_port: int, n: int) -> int:
    """Index in ``range(n)`` for this flow, stable in (seed, 5-tuple)."""
    if n <= 0:
        raise ValueError("ECMP group must have at least one member")
    if n == 1:
        return 0
    packed = _KEY_STRUCT.pack(proto & 0xFFFFFFFF, src_ip & 0xFFFFFFFF,
                              dst_ip & 0xFFFFFFFF, src_port & 0xFFFF,
                              dst_port & 0xFFFF)
    digest = hashlib.blake2b(packed, digest_size=8,
                             key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
                             ).digest()
    return int.from_bytes(digest, "big") % n
