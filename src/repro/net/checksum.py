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
folds the pseudo-header in through ``initial``.  The summation is
word-wise, not byte-wise, and takes one of two paths by buffer size:

* up to ``_SMALL`` (1,024) bytes, and at every size when numpy is not
  installed, the buffer is folded in the entry point's own frame: its
  big-endian integer value is congruent, modulo 0xFFFF, to its 16-bit
  word sum (because 2**16 == 1 mod 0xFFFF), so one ``int.from_bytes``
  and one ``%`` replace the loop;
* above it, :func:`_word_sum_numpy` sums a zero-copy ``>u2`` array view.

The crossover is where numpy's fixed cost a call stops losing to the
``int.from_bytes`` fold, whose ``%`` grows with the buffer.  Microseconds
a call on an Intel Xeon core, CPython 3.11 (best of seven):

=========  ======================  =====
bytes      ``int.from_bytes`` + %  numpy
=========  ======================  =====
513        1.9                     3.3
1,024      3.3                     3.3
1,400      4.3                     3.5
2,048      6.5                     3.8
9,000      27.4                    6.3
=========  ======================  =====

numpy is located with ``importlib.util.find_spec`` when this module
loads, but imported only by the first buffer over ``_SMALL``: a run that
never sums one (every UDP echo of small datagrams) never pays numpy's
start-up time or memory.  Both paths produce bit-identical results;
``internet_checksum_reference`` keeps the original per-byte
implementation for cross-checking in tests.
"""

from __future__ import annotations

import importlib.util
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


def _word_sum_numpy(data: Buffer) -> int:
    """Word sum over a zero-copy big-endian uint16 numpy view.

    Odd-length buffers are summed as if zero-padded (RFC 1071).  The
    first call imports numpy.
    """
    import numpy

    length = len(data)
    view = data if isinstance(data, memoryview) else memoryview(data)
    if not view.contiguous:
        view = memoryview(bytes(view))
    elif view.itemsize != 1:
        view = view.cast("B")
    even = length & ~1
    total = int(numpy.frombuffer(view[:even], dtype=">u2")
                .sum(dtype=numpy.uint64))
    if length & 1:
        total += view[length - 1] << 8
    return total


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """One's-complement sum of 16-bit words, complemented.

    ``initial`` lets callers fold in a pseudo-header sum.
    """
    length = len(data)
    if length <= _SMALL or not _HAVE_NUMPY:
        n = int.from_bytes(data, "big")
        if length & 1:
            n <<= 8
        # A nonzero multiple of 0xFFFF must not fold to zero: the carry
        # fold below tells a zero sum from 0xFFFF by the total alone.
        s = n % 0xFFFF
        total = initial + (s if s or not n else 0xFFFF)
    else:
        total = initial + _word_sum_numpy(data)
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum_reference(data: Buffer, initial: int = 0) -> int:
    """The original per-byte implementation, kept as the test oracle."""
    data = bytes(data)
    total = initial
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
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
