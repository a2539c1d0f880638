"""Berkeley memory buffers (mbufs).

Plexus passes packets through the protocol graph as mbufs -- "a primary
advantage of mbufs is that they are directly used by most UNIX device
drivers" (paper footnote 1).  Both OS models in this reproduction use this
implementation, mirroring the paper's shared-driver setup.

What the model keeps of the classic BSD design is what the simulated
cost table and the protocol code can see:

* a packet of up to :data:`MLEN` bytes (headroom included) is one small
  mbuf; a larger one is a chain with a link at every :data:`MCLBYTES`
  boundary, so the link count -- what :class:`MbufPool` charges for -- is
  the one a cluster-per-link allocator would produce,
* the links are joined through ``next``; the first carries a packet header
  with the total length,
* headers are pushed into the leading space (headroom) of the buffer:
  :meth:`Mbuf.push` grows the packet at the front and each layer packs
  its header where it now lies, so the send path builds a packet in place
  and a transport checksums header and payload as one window of the
  store (:meth:`Mbuf.prepend` is ``push`` plus a copy, for a header
  already held as bytes); receivers do not trim headers off but carry an
  offset into the chain and VIEW the next header there.

What it does not keep is a buffer per link.  A packet has one backing
store, its own copy of the bytes it was built from, and each link is a
``(off, len)`` window over it: one copy in (:meth:`Mbuf.from_bytes`), one
slice out (:meth:`Mbuf.to_bytes`).  Only a push that runs out of
headroom adds a link with a store of its own, always as the new head,
which ``to_bytes`` discovers by walking the chain.  Cluster reference
counts went with ``Mbuf.share``: nothing shares storage between packets.

READONLY packets (paper section 3.4): :meth:`Mbuf.freeze` marks a chain
immutable; data access then returns :class:`~repro.lang.readonly.ReadOnlyBuffer`
and every mutating operation raises ``ReadOnlyViolation``.  An extension
that needs a private, writable packet calls :meth:`Mbuf.copy_packet`.

CPU accounting: mbuf operations are pure; the per-host :class:`MbufPool`
wraps allocation/free with cost charges so both OS models account mbuf
work identically.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from ..lang.readonly import ReadOnlyBuffer, ReadOnlyViolation

__all__ = ["Mbuf", "MbufPool", "MLEN", "MCLBYTES", "MbufError"]

MLEN = 224        # bytes of inline storage in a small mbuf
MCLBYTES = 2048   # bytes a link of a chain can hold (a BSD cluster)


class MbufError(RuntimeError):
    """Raised on invalid mbuf operations (over-long prepends etc.)."""


class PacketHeader:
    """Per-packet metadata carried by the first mbuf of a chain."""

    __slots__ = ("length",)

    def __init__(self, length: int = 0):
        self.length = length


class Mbuf:
    """One link of a packet chain: ``len`` bytes at ``off`` in the store."""

    __slots__ = ("_storage", "off", "len", "next", "pkthdr",
                 "_frozen")

    def __init__(self, storage: bytearray, off: int, length: int,
                 pkthdr: Optional[PacketHeader] = None):
        self._storage = storage
        self.off = off
        self.len = length
        self.next: Optional["Mbuf"] = None
        self.pkthdr = pkthdr
        self._frozen = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray], leading_space: int = 64
                   ) -> "Mbuf":
        """Build a packet chain holding a copy of ``data`` (with headroom)."""
        n = len(data)
        if n + leading_space <= MLEN and leading_space < MLEN:
            # Single small mbuf: the common case for every header-sized
            # packet; skips the chain-building loop below.
            storage = bytearray(MLEN)
            storage[leading_space:leading_space + n] = data
            return cls(storage, leading_space, n, PacketHeader(n))
        if leading_space >= MCLBYTES:
            raise MbufError("leading space %d exceeds MCLBYTES" % leading_space)
        # The packet's own store: headroom, then the one copy of the data.
        storage = bytearray(leading_space)
        storage += data
        end = leading_space + n
        head = tail = cls(storage, leading_space,
                          min(end, MCLBYTES) - leading_space,
                          PacketHeader(n))
        # One link per cluster boundary the packet crosses.
        off = MCLBYTES
        while off < end:
            m = cls(storage, off, min(MCLBYTES, end - off))
            tail.next = m
            tail = m
            off += MCLBYTES
        return head

    # -- views ---------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def data(self) -> Union[memoryview, ReadOnlyBuffer]:
        """This mbuf's bytes; read-only when the packet is frozen."""
        window = memoryview(self._storage)[self.off:self.off + self.len]
        if self._frozen:
            return ReadOnlyBuffer(window.toreadonly())
        return window

    def writable_data(self) -> memoryview:
        """Explicitly writable window; raises on frozen packets."""
        self._check_writable("write into")
        return memoryview(self._storage)[self.off:self.off + self.len]

    def chain(self) -> Iterator["Mbuf"]:
        m: Optional[Mbuf] = self
        while m is not None:
            yield m
            m = m.next

    def length(self) -> int:
        """Total bytes in the chain starting here."""
        # Plain while-loop: this runs for every guard evaluation on every
        # packet, and the generator version costs three frames per mbuf.
        total = 0
        m: Optional[Mbuf] = self
        while m is not None:
            total += m.len
            m = m.next
        return total

    def to_bytes(self) -> bytes:
        """Linearized copy of the whole chain (a copy, always allowed)."""
        storage = self._storage
        start = self.off
        end = start + self.len
        pieces = []
        m = self.next
        while m is not None:
            if m._storage is storage and m.off == end:
                # The next window over the same store: extend the slice.
                end += m.len
            else:
                # A prepend ran out of headroom here: the run so far is one
                # piece, and bytes.join takes buffer objects directly.
                pieces.append(memoryview(storage)[start:end])
                storage = m._storage
                start = m.off
                end = start + m.len
            m = m.next
        if not pieces:
            return bytes(memoryview(storage)[start:end])
        pieces.append(memoryview(storage)[start:end])
        return b"".join(pieces)

    # -- mutation ----------------------------------------------------------------

    def _check_writable(self, operation: str) -> None:
        if self._frozen:
            raise ReadOnlyViolation(
                "cannot %s a READONLY packet; use copy_packet() first "
                "(paper sec. 3.4)" % operation)

    def freeze(self) -> "Mbuf":
        """Mark the whole chain READONLY (idempotent); returns self."""
        m: Optional[Mbuf] = self
        while m is not None:
            m._frozen = True
            m = m.next
        return self

    def push(self, n: int) -> "Mbuf":
        """Grow the packet this mbuf heads by ``n`` bytes at the front.

        The new bytes come out of the headroom when there is room, else
        from a new head link with a store of its own.  Returns the head;
        the caller writes the header at ``head._storage[head.off:]``.
        Only a head link has headroom: a later link's window abuts its
        predecessor's.
        """
        if self._frozen:  # tested inline: every layer's send pushes
            self._check_writable("prepend to")
        if n <= self.off:
            self.off -= n
            self.len += n
            if self.pkthdr is not None:
                self.pkthdr.length += n
            return self
        # Not enough headroom: a new head link holding exactly the header.
        if n > MCLBYTES:
            raise MbufError("prepend of %d bytes exceeds MCLBYTES" % n)
        head = Mbuf(bytearray(n), 0, n, self.pkthdr)
        head.next = self
        if head.pkthdr is not None:
            head.pkthdr.length += n
        self.pkthdr = None
        return head

    def prepend(self, data: Union[bytes, bytearray]) -> "Mbuf":
        """Prepend a copy of ``data``: :meth:`push` plus one slice copy."""
        n = len(data)
        head = self.push(n)
        head._storage[head.off:head.off + n] = data
        return head

    # -- copies -----------------------------------------------------------------

    def copy_packet(self, leading_space: int = 64) -> "Mbuf":
        """A fresh, writable, deep copy of the chain (explicit copy-on-write)."""
        return Mbuf.from_bytes(self.to_bytes(), leading_space=leading_space)

    def __repr__(self) -> str:
        return "<Mbuf len=%d chain=%d total=%d%s>" % (
            self.len, sum(1 for _ in self.chain()), self.length(),
            " READONLY" if self._frozen else "")


class MbufPool:
    """Per-host allocator facade that charges CPU costs for mbuf work."""

    def __init__(self, host):
        self.host = host
        self.allocated = 0   # individual mbufs (chain links)
        self.chains = 0      # packet chains, i.e. one per logical packet
        self.freed = 0

    def _charge_alloc(self, chain: Optional[Mbuf], count: int = 1
                      ) -> Optional[Mbuf]:
        """Charge for the links of ``chain``, or for ``count`` links when
        there is no chain, and count one packet chain."""
        if chain is not None:
            m = chain.next
            while m is not None:
                count += 1
                m = m.next
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
        return chain

    def from_bytes(self, data: Union[bytes, bytearray], leading_space: int = 64
                   ) -> Mbuf:
        return self._charge_alloc(Mbuf.from_bytes(data, leading_space))

    def charge_chain(self, size: int) -> None:
        """Charge for the chain ``from_bytes(bytes(size), leading_space=0)``
        would build, without building it: a link per ``MCLBYTES`` begun,
        and at least one."""
        self._charge_alloc(None, -(-size // MCLBYTES) or 1)

    def copy_packet(self, m: Mbuf, leading_space: int = 64) -> Mbuf:
        clone = m.copy_packet(leading_space)
        self.host.cpu.charge(
            m.length() * self.host.costs.copy_per_byte, "copy")
        return self._charge_alloc(clone)

    def free(self, m: Mbuf) -> None:
        count = sum(1 for _ in m.chain())
        self.host.cpu.charge(count * self.host.costs.mbuf_free, "mbuf")
        self.freed += count

    def register_metrics(self, registry) -> None:
        """Publish the allocator counters on a metrics registry."""
        registry.source("spin.mbuf.allocated", lambda: self.allocated)
        registry.source("spin.mbuf.chains", lambda: self.chains)
        registry.source("spin.mbuf.freed", lambda: self.freed)
        registry.source("spin.mbuf.in_use", lambda: self.allocated - self.freed)
