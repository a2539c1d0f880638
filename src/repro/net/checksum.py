"""The Internet checksum (RFC 1071), with CPU cost accounting.

The checksum is computed for real over the actual packet bytes -- the
protocols in this reproduction are genuine implementations, not stubs --
and the *cost* of the pass is charged per byte (``checksum_per_byte`` in
the cost table), which is what makes "UDP with the checksum disabled"
(paper section 1.1) a measurable optimization in the benchmarks.

Implementation notes (wall-clock, not simulated time)
-----------------------------------------------------

The summation is word-wise, not byte-wise, because this function sits on
the hot path of every simulated packet and per-byte Python loops are what
bound million-packet experiment sweeps:

* small buffers (headers, pseudo-headers, short datagrams) are folded
  with a single ``int.from_bytes``: the big-endian integer value of the
  buffer is congruent, modulo 0xFFFF, to its 16-bit word sum (because
  2**16 == 1 mod 0xFFFF), so one C call replaces the whole loop;
* large buffers are summed in bounded 2 KB chunks with a precompiled
  ``struct.Struct`` -- zero-copy over a ``memoryview``, with constant
  extra allocation regardless of input size;
* when numpy is importable, large buffers are instead summed via a
  zero-copy ``>u2`` array view; small ones keep the ``int.from_bytes``
  path (numpy's per-call overhead loses below a few hundred bytes).

The choice is made per buffer from its size and numpy's presence, never
by a switch.  Every path produces bit-identical results;
``internet_checksum_reference`` keeps the original per-byte
implementation for cross-checking in tests.
"""

from __future__ import annotations

import struct
from typing import Union

from ..lang.ephemeral import register_safe

__all__ = [
    "internet_checksum",
    "internet_checksum_reference",
    "verify_checksum",
    "charged_checksum",
    "word_sum",
]

Buffer = Union[bytes, bytearray, memoryview]

#: Buffers up to this size take the single ``int.from_bytes`` path.
_SMALL = 512
_CHUNK_WORDS = 1024
_CHUNK_BYTES = _CHUNK_WORDS * 2
_CHUNK_STRUCT = struct.Struct("!%dH" % _CHUNK_WORDS)


def _word_sum_python(data: Buffer) -> int:
    """A value congruent mod 0xFFFF to the 16-bit word sum of ``data``.

    Odd-length buffers are summed as if zero-padded (RFC 1071).  The
    result is zero only when the true word sum is zero, which is the
    invariant the carry fold in :func:`internet_checksum` relies on.
    """
    length = len(data)
    if length == 0:
        return 0
    if length <= _SMALL:
        n = int.from_bytes(data, "big")
        if length & 1:
            n <<= 8
        s = n % 0xFFFF
        return s if s or not n else 0xFFFF
    view = data if isinstance(data, memoryview) else memoryview(data)
    if not view.contiguous:
        view = memoryview(bytes(view))  # exotic caller; copy is unavoidable
    elif view.itemsize != 1:
        view = view.cast("B")
    total = 0
    offset = 0
    bound = length - _CHUNK_BYTES
    unpack_from = _CHUNK_STRUCT.unpack_from
    while offset <= bound:
        total += sum(unpack_from(view, offset))
        offset += _CHUNK_BYTES
    if offset < length:
        n = int.from_bytes(view[offset:], "big")
        if length & 1:
            n <<= 8
        total += n
    return total


def _word_sum_numpy(data: Buffer) -> int:
    """Word sum over a zero-copy big-endian uint16 numpy view."""
    import numpy

    length = len(data)
    if length == 0:
        return 0
    view = data if isinstance(data, memoryview) else memoryview(data)
    if not view.contiguous:
        view = memoryview(bytes(view))
    elif view.itemsize != 1:
        view = view.cast("B")
    even = length & ~1
    total = 0
    if even:
        words = numpy.frombuffer(view[:even], dtype=">u2")
        total = int(words.sum(dtype=numpy.uint64))
    if length & 1:
        total += view[length - 1] << 8
    return total


try:
    import numpy as _numpy  # noqa: F401  (availability probe)
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _numpy = None


def _word_sum(data: Buffer) -> int:
    """Size-dispatched word sum: stdlib for small buffers, numpy for big.

    Both sums are congruent mod 0xFFFF, so the folded checksum is
    bit-identical whichever path a given buffer takes.
    """
    if len(data) <= _SMALL or _numpy is None:
        return _word_sum_python(data)
    return _word_sum_numpy(data)


def word_sum(data: Buffer) -> int:
    """A value congruent mod 0xFFFF to ``data``'s 16-bit word sum.

    Lets hot paths checksum discontiguous pieces (header + payload)
    without concatenating: sum each even-length leading piece here and
    fold it into ``initial``.  Congruence mod 0xFFFF is preserved under
    addition, so :func:`internet_checksum` over the concatenation and
    over the parts produce identical values whenever the total sum is
    positive (always true with a nonzero pseudo-header).
    """
    return _word_sum(data)


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """One's-complement sum of 16-bit words, complemented.

    ``initial`` lets callers fold in a pseudo-header sum.
    """
    total = initial + _word_sum(data)
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


def charged_checksum(host, data: Buffer, initial: int = 0,
                     category: str = "checksum") -> int:
    """Compute the checksum and charge its per-byte CPU cost to ``host``."""
    host.cpu.charge(len(data) * host.costs.checksum_per_byte, category)
    return internet_checksum(data, initial)


# Checksums are pure per-byte passes: safe inside ephemeral handlers.
register_safe(internet_checksum)
register_safe(internet_checksum_reference)
register_safe(verify_checksum)
register_safe(charged_checksum)
