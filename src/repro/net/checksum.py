"""The Internet checksum (RFC 1071), with CPU cost accounting.

The checksum is computed for real over the actual packet bytes -- the
protocols in this reproduction are genuine implementations, not stubs --
and the *cost* of the pass is charged per byte (``checksum_per_byte`` in
the cost table), which is what makes "UDP with the checksum disabled"
(paper section 1.1) a measurable optimization in the benchmarks.

Implementation notes (wall-clock, not simulated time)
-----------------------------------------------------

:func:`internet_checksum` is the one entry point.  A transport hands it
one window over the packet's store, header and payload together, and
folds the pseudo-header in through ``initial``; IP's send and receive
paths sum their header's fields instead (``net/ip.py``).  The sum is reduced
with one ``%`` and no carry-fold loop: any word sum is congruent, modulo
0xFFFF, to its fold (because 2**16 == 1 mod 0xFFFF), so the complement
is the sum's negation modulo 0xFFFF -- except that only an all-zero sum
folds to 0 (complement 0xFFFF), where a nonzero multiple of 0xFFFF folds
to 0xFFFF (complement 0).  The words are summed by buffer size:

* up to ``_SMALL`` (1,024) bytes, and at every size when numpy is not
  installed, the buffer's big-endian integer value is its word sum,
  modulo 0xFFFF: one ``int.from_bytes``;
* above it, one ``numpy.add.reduce`` sums a zero-copy view of native
  32-bit words into a uint64 (RFC 1071 section 2C: a wider word defers
  the carries, and a 32-bit word is two 16-bit words modulo 0xFFFF).  On
  a little-endian host those are byte-swapped words, and their sum,
  shifted left 8 bits, is the big-endian one modulo 0xFFFF (section 2B);
  the 0-3 bytes past the last whole word go through ``int.from_bytes``.

numpy's fixed cost a call stops losing to the ``int.from_bytes`` fold,
whose ``%`` grows with the buffer, between 513 and 1,024 bytes; ``_SMALL``
stays at 1,024, so a run whose buffers are all smaller never loads numpy.
Microseconds a call over a window one byte past an aligned start, on an
Intel Xeon core, CPython 3.11 and numpy 2.4 (best of seven, best of
three runs on a shared host):

=========  ======================  ============
bytes      ``int.from_bytes`` + %  numpy 32-bit
=========  ======================  ============
513        2.2                     3.7
1,024      4.8                     2.6
1,400      5.1                     2.7
2,048      7.4                     3.8
9,000      31.7                    5.4
=========  ======================  ============

numpy is located with ``importlib.util.find_spec`` when this module
loads, but imported only by the first buffer over ``_SMALL``: a run that
never sums one (every UDP echo of small datagrams) never pays numpy's
start-up time or memory.  Both paths produce bit-identical results;
``internet_checksum_reference`` keeps the original per-byte
implementation for cross-checking in tests.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Union

from ..lang.ephemeral import register_safe

__all__ = [
    "internet_checksum",
    "internet_checksum_reference",
    "verify_checksum",
    "charged_checksum",
]

Buffer = Union[bytes, bytearray, memoryview]

#: Buffers up to this size are folded with ``int.from_bytes``.
_SMALL = 1024
#: Whether buffers over ``_SMALL`` can be summed by numpy (imported then).
_HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
#: Multiplying by 2**8 modulo 0xFFFF byte-swaps a folded sum: a sum of
#: little-endian words becomes the big-endian one (RFC 1071 section 2B).
_SWAP = 8 if sys.byteorder == "little" else 0


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """One's-complement sum of 16-bit words, complemented.

    ``initial`` lets callers fold in a pseudo-header sum.
    """
    length = len(data)
    total = initial
    if length > _SMALL and _HAVE_NUMPY:
        import numpy
        whole = length & ~3
        total += int(numpy.add.reduce(
            numpy.frombuffer(data, numpy.uint32, whole >> 2),
            dtype=numpy.uint64)) << _SWAP
        data = data[whole:]
    n = int.from_bytes(data, "big")
    if length & 1:
        n <<= 8
    total += n
    # One's-complement -0: only an all-zero sum folds to 0, so only it
    # complements to 0xFFFF; a nonzero multiple of 0xFFFF complements to 0.
    return -total % 0xFFFF if total else 0xFFFF


def internet_checksum_reference(data: Buffer, initial: int = 0) -> int:
    """The original per-byte implementation, kept as the test oracle."""
    data = bytes(data)
    total = initial
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: Buffer, initial: int = 0) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    # A buffer whose stored checksum is correct yields 0 from the
    # complemented sum (0xFFFF before complement).
    return internet_checksum(data, initial) == 0


def charged_checksum(host, data: Buffer, initial: int = 0) -> int:
    """Compute the checksum and charge its per-byte CPU cost to ``host``."""
    host.cpu.charge(len(data) * host.costs.checksum_per_byte, "checksum")
    return internet_checksum(data, initial)


# Checksums are pure per-byte passes: safe inside ephemeral handlers.
register_safe(internet_checksum)
register_safe(internet_checksum_reference)
register_safe(verify_checksum)
register_safe(charged_checksum)
