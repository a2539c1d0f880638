"""Berkeley memory buffers (mbufs).

Plexus passes packets through the protocol graph as mbufs -- "a primary
advantage of mbufs is that they are directly used by most UNIX device
drivers" (paper footnote 1).  Both OS models in this reproduction use this
implementation, mirroring the paper's shared-driver setup.

What the model keeps of the classic BSD design is what the simulated
cost table and the protocol code can see:

* the link count: :attr:`Mbuf.links` is the number of mbufs a
  cluster-per-link allocator would have chained for the packet -- one
  small mbuf for up to :data:`MLEN` bytes (headroom included), else one
  per :data:`MCLBYTES` cluster begun, and one more per header that a push
  could not fit in the headroom.  It is what :class:`MbufPool` charges
  for; the chain itself is not built,
* headers are pushed into the leading space (headroom) of the buffer:
  :meth:`Mbuf.push` grows the packet at the front and each layer packs
  its header where it now lies, so the send path builds a packet in place
  and a transport checksums header and payload as one window of the
  store (:meth:`Mbuf.prepend` is ``push`` plus a copy, for a header
  already held as bytes); receivers do not trim headers off but carry an
  offset into the packet and VIEW the next header there, and a layer
  that knows the packet's true length narrows the window to it (BSD's
  ``m_adj`` of link padding).

A packet is one window, ``len`` bytes at ``off``, over one backing store
that is its own copy of the bytes it was built from: one copy in
(:meth:`Mbuf.from_bytes`), one slice out (:meth:`Mbuf.to_bytes`).  A push
past the headroom copies the window in behind the new header, into a
fresh store with no headroom, and counts the link BSD would have
prepended for the header.  Nothing shares storage between packets.

READONLY packets (paper section 3.4): :meth:`Mbuf.freeze` marks a packet
immutable; :attr:`Mbuf.data` is then the window made read-only
(``memoryview.toreadonly()``), through which the interpreter refuses any
write with ``TypeError``, and :meth:`Mbuf.writable_data`, :meth:`Mbuf.push`
and :meth:`Mbuf.prepend` raise ``ReadOnlyViolation``.  An extension that
needs a private, writable packet calls :meth:`Mbuf.copy_packet`.

CPU accounting: mbuf operations are pure; the per-host :class:`MbufPool`
wraps allocation/free with cost charges so both OS models account mbuf
work identically.
"""

from __future__ import annotations

from typing import Union

from ..lang.view import ReadOnlyViolation

__all__ = ["Mbuf", "MbufPool", "MLEN", "MCLBYTES", "MbufError"]

MLEN = 224        # bytes of inline storage in a small mbuf
MCLBYTES = 2048   # bytes a link of a chain can hold (a BSD cluster)


class MbufError(RuntimeError):
    """Raised on invalid mbuf operations (over-long prepends etc.)."""


class Mbuf:
    """A packet: ``len`` bytes at ``off`` in its store, and the number of
    ``links`` a BSD chain holding it would have."""

    __slots__ = ("_storage", "off", "len", "links", "_frozen")

    def __init__(self, storage: bytearray, off: int, length: int,
                 links: int = 1):
        self._storage = storage
        self.off = off
        self.len = length
        self.links = links
        self._frozen = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray], leading_space: int = 64
                   ) -> "Mbuf":
        """A packet holding a copy of ``data`` behind ``leading_space``
        bytes of headroom."""
        if leading_space >= MCLBYTES:
            raise MbufError("leading space %d exceeds MCLBYTES" % leading_space)
        storage = bytearray(leading_space)
        storage += data
        n = len(data)
        # A link per cluster begun, and at least one: up to MLEN bytes are
        # one small mbuf, which is one link too.
        return cls(storage, leading_space, n,
                   -(-(leading_space + n) // MCLBYTES) or 1)

    # -- views ---------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def data(self) -> memoryview:
        """The packet's bytes; a read-only window when the packet is frozen."""
        window = memoryview(self._storage)[self.off:self.off + self.len]
        if self._frozen:
            return window.toreadonly()
        return window

    def writable_data(self) -> memoryview:
        """Explicitly writable window; raises on frozen packets."""
        self._check_writable("write into")
        return memoryview(self._storage)[self.off:self.off + self.len]

    def length(self) -> int:
        """Bytes in the packet."""
        return self.len

    def to_bytes(self) -> bytes:
        """A copy of the packet's bytes (always allowed)."""
        return bytes(memoryview(self._storage)[self.off:self.off + self.len])

    # -- mutation ----------------------------------------------------------------

    def _check_writable(self, operation: str) -> None:
        if self._frozen:
            raise ReadOnlyViolation(
                "cannot %s a READONLY packet; use copy_packet() first "
                "(paper sec. 3.4)" % operation)

    def freeze(self) -> "Mbuf":
        """Mark the packet READONLY (idempotent); returns self."""
        self._frozen = True
        return self

    def push(self, n: int) -> "Mbuf":
        """Grow the packet by ``n`` bytes at the front; returns self.

        The new bytes come out of the headroom when there is room.  Else
        the window is copied in behind them, into a fresh store with no
        headroom, and the packet gains the link BSD would have prepended
        to hold the header (so a further push adds another).  The caller
        writes the header at ``m._storage[m.off:]``.
        """
        if self._frozen:  # tested inline: every layer's send pushes
            self._check_writable("prepend to")
        if n <= self.off:
            self.off -= n
            self.len += n
            return self
        if n > MCLBYTES:
            raise MbufError("prepend of %d bytes exceeds MCLBYTES" % n)
        storage = bytearray(n)
        storage += memoryview(self._storage)[self.off:self.off + self.len]
        self._storage = storage
        self.off = 0
        self.len += n
        self.links += 1
        return self

    def prepend(self, data: Union[bytes, bytearray]) -> "Mbuf":
        """Prepend a copy of ``data``: :meth:`push` plus one slice copy."""
        n = len(data)
        self.push(n)
        self._storage[self.off:self.off + n] = data
        return self

    # -- copies -----------------------------------------------------------------

    def copy_packet(self, leading_space: int = 64) -> "Mbuf":
        """A fresh, writable copy of the packet (explicit copy-on-write)."""
        return Mbuf.from_bytes(self.to_bytes(), leading_space=leading_space)

    def __repr__(self) -> str:
        return "<Mbuf len=%d links=%d%s>" % (
            self.len, self.links, " READONLY" if self._frozen else "")


class MbufPool:
    """Per-host allocator facade that charges CPU costs for mbuf work."""

    def __init__(self, host):
        self.host = host
        self.allocated = 0   # individual mbufs (chain links)
        self.chains = 0      # packet chains, i.e. one per logical packet
        self.freed = 0

    def _charge_alloc(self, m: Mbuf) -> Mbuf:
        """Charge for the links of ``m`` and count one packet chain.

        For callers that charge after building (TCP's segments, and
        :meth:`copy_packet`); :meth:`from_bytes` books the same charge in
        its own frame."""
        count = m.links
        # cpu.charge inlined (exact body, exact order): every packet
        # allocates at least one mbuf on both the send and receive path.
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            from ..hw.cpu import OUTSIDE_PATH, ChargeError
            raise ChargeError(OUTSIDE_PATH)
        amount = count * self.host.costs.mbuf_alloc
        stack[-1] += amount
        cpu.category_times["mbuf"] += amount
        self.allocated += count
        self.chains += 1
        return m

    def from_bytes(self, data: Union[bytes, bytearray], leading_space: int = 64
                   ) -> Mbuf:
        """:meth:`Mbuf.from_bytes` (its link rule too), built and charged
        in this frame: every send and receive allocates one."""
        if leading_space >= MCLBYTES:
            raise MbufError("leading space %d exceeds MCLBYTES" % leading_space)
        storage = bytearray(leading_space)
        storage += data
        n = len(data)
        links = -(-(leading_space + n) // MCLBYTES) or 1
        m = Mbuf(storage, leading_space, n, links)
        # _charge_alloc inlined (exact body, exact order).
        cpu = self.host.cpu
        stack = cpu._stack
        if not stack:
            from ..hw.cpu import OUTSIDE_PATH, ChargeError
            raise ChargeError(OUTSIDE_PATH)
        amount = links * self.host.costs.mbuf_alloc
        stack[-1] += amount
        cpu.category_times["mbuf"] += amount
        self.allocated += links
        self.chains += 1
        return m

    def copy_packet(self, m: Mbuf, leading_space: int = 64) -> Mbuf:
        clone = m.copy_packet(leading_space)
        self.host.cpu.charge(
            m.len * self.host.costs.copy_per_byte, "copy")
        return self._charge_alloc(clone)

    def free(self, m: Mbuf) -> None:
        count = m.links
        self.host.cpu.charge(count * self.host.costs.mbuf_free, "mbuf")
        self.freed += count

    def register_metrics(self, registry) -> None:
        """Publish the allocator counters on a metrics registry."""
        registry.source("spin.mbuf.allocated", lambda: self.allocated)
        registry.source("spin.mbuf.chains", lambda: self.chains)
        registry.source("spin.mbuf.freed", lambda: self.freed)
        registry.source("spin.mbuf.in_use", lambda: self.allocated - self.freed)
