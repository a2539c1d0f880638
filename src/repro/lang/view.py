"""The VIEW operator (paper section 3.2).

``VIEW(a, T)`` interprets the byte buffer ``a``'s bit pattern as a value of
type ``T`` -- a scalar or an aggregate of scalars -- *without copying*.
This is what lets guards and handlers written in a typesafe language
inspect raw packets safely (Figure 2 in the paper).

The reproduction provides:

* ``VIEW(buffer, layout)`` -> :class:`TypedView`, a zero-copy attribute
  window over the buffer.  Reading ``view.field`` decodes from the
  underlying storage at that moment; writes encode in place.
* Safety checks the Modula-3 compiler performs are performed here at view
  construction: the target must be a scalar-aggregate type (enforced by
  :class:`~repro.lang.layout.Layout` itself) and the buffer must be at
  least as large as the type.
* Views over READONLY buffers (``bytes``, or a memoryview made with
  ``toreadonly()``, which is what a frozen packet's ``data`` is) are
  read-only: assigning a field or an array element raises
  :class:`ReadOnlyViolation`.  The interpreter itself refuses a write
  through the read-only memoryview.
"""

from __future__ import annotations

import struct
from typing import Union

from .ephemeral import register_safe
from .layout import ArrayType, Layout, Scalar

__all__ = ["VIEW", "TypedView", "ArrayView", "ViewError", "ReadOnlyViolation"]


class ViewError(TypeError):
    """Raised when a VIEW cannot be constructed safely."""


class ReadOnlyViolation(TypeError):
    """Raised when code writes through a READONLY packet or view.

    This is the runtime analogue of the compile error in Figure 4 of the
    paper (``BadPacketRecv`` writing through a READONLY parameter).  A
    write through a frozen packet's ``data`` itself is refused by the
    interpreter's read-only memoryview with a plain ``TypeError``.
    """


BufferLike = Union[bytes, bytearray, memoryview]


class ArrayView:
    """Zero-copy window over an array field of a :class:`TypedView`."""

    __slots__ = ("_storage", "_writable", "_offset", "_type")

    def __init__(self, storage, writable: bool, offset: int, array_type: ArrayType):
        self._storage = storage
        self._writable = writable
        self._offset = offset
        self._type = array_type

    def __len__(self) -> int:
        return self._type.length

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int):
            raise TypeError("array view indices must be integers")
        if index < 0:
            index += self._type.length
        if not 0 <= index < self._type.length:
            raise IndexError(
                "index %d out of range for %r" % (index, self._type))
        return index

    def __getitem__(self, index: int) -> int:
        index = self._check_index(index)
        element = self._type.element
        return element.decode(self._storage, self._offset + index * element.size)

    def __setitem__(self, index: int, value: int) -> None:
        if not self._writable:
            raise ReadOnlyViolation(
                "cannot write array element through a view of a READONLY buffer")
        index = self._check_index(index)
        element = self._type.element
        element.encode(self._storage, self._offset + index * element.size, value)

    def __iter__(self):
        for i in range(self._type.length):
            yield self[i]

    def tobytes(self) -> bytes:
        return bytes(self._storage[self._offset:self._offset + self._type.size])

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayView):
            return self.tobytes() == other.tobytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.tobytes() == bytes(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.tobytes())

    def __repr__(self) -> str:
        return "ArrayView(%r)" % (self.tobytes(),)


class TypedView:
    """Zero-copy typed window over a byte buffer.

    Attribute reads decode the named field from the underlying storage;
    attribute writes encode in place (when the storage is writable).  The
    view *aliases* the buffer: changes to the buffer are visible through
    the view and vice versa, which is exactly the WITH-alias idiom of
    Figure 2 in the paper.
    """

    __slots__ = ("_storage", "_writable", "_offset", "_layout")

    def __init__(self, storage, writable: bool, offset: int, layout: Layout):
        object.__setattr__(self, "_storage", storage)
        object.__setattr__(self, "_writable", writable)
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "_layout", layout)

    def _field(self, name: str):
        layout = self._layout
        if name not in layout.offsets:
            raise AttributeError(
                "%s has no field %r (fields: %s)"
                % (layout.name, name, ", ".join(layout.field_names())))
        return layout.types[name], self._offset + layout.offsets[name]

    def __getattr__(self, name: str):
        # Fast path: scalar fields decode with one precompiled
        # struct.unpack_from call.  Everything else -- nested records,
        # arrays, unknown names, short buffers -- falls through to the
        # slow path, which raises the precise historical errors.
        entry = self._layout._scalar_get.get(name)
        if entry is not None:
            try:
                return entry[0](self._storage, self._offset + entry[1])[0]
            except struct.error:
                pass
        return self._getattr_slow(name)

    def _getattr_slow(self, name: str):
        field_type, offset = self._field(name)
        if isinstance(field_type, Scalar):
            return field_type.decode(self._storage, offset)
        if isinstance(field_type, ArrayType):
            return ArrayView(self._storage, self._writable, offset, field_type)
        return TypedView(self._storage, self._writable, offset, field_type)

    def __setattr__(self, name: str, value) -> None:
        if self._writable:
            entry = self._layout._scalar_put.get(name)
            if entry is not None:
                try:
                    entry[0](self._storage, self._offset + entry[1], value)
                    return
                except struct.error:
                    # Non-int or out-of-range value: the slow path coerces
                    # and raises exactly as the original implementation.
                    pass
        self._setattr_slow(name, value)

    def _setattr_slow(self, name: str, value) -> None:
        field_type, offset = self._field(name)
        if not self._writable:
            raise ReadOnlyViolation(
                "cannot assign %s.%s through a view of a READONLY buffer; "
                "make an explicit copy first (paper sec. 3.4)"
                % (self._layout.name, name))
        if isinstance(field_type, Scalar):
            field_type.encode(self._storage, offset, value)
        elif isinstance(field_type, ArrayType):
            data = bytes(value)
            if len(data) != field_type.size:
                raise ViewError(
                    "assigning %d bytes to array field %s.%s of size %d"
                    % (len(data), self._layout.name, name, field_type.size))
            self._storage[offset:offset + field_type.size] = data
        else:
            raise ViewError(
                "cannot assign whole nested record %s.%s; assign its fields"
                % (self._layout.name, name))

    def tobytes(self) -> bytes:
        return bytes(self._storage[self._offset:self._offset + self._layout.size])

    def __repr__(self) -> str:
        fields = []
        for name, field_type in self._layout.fields:
            if isinstance(field_type, Scalar):
                fields.append("%s=%d" % (name, getattr(self, name)))
            else:
                fields.append("%s=..." % name)
        return "<VIEW %s %s>" % (self._layout.name, " ".join(fields))


def VIEW(buffer: BufferLike, layout: Layout, offset: int = 0) -> TypedView:
    """Interpret ``buffer[offset:]``'s bit pattern as a value of ``layout``.

    Raises :class:`ViewError` if the target is not a scalar-aggregate
    layout or the buffer is too small -- the checks Modula-3 performs when
    compiling a VIEW expression.  The result aliases the buffer; no bytes
    are copied.
    """
    if not isinstance(layout, Layout):
        raise ViewError(
            "VIEW target must be a Layout (a scalar type or an aggregate of "
            "scalar types, paper sec. 3.2); got %r" % (layout,))
    # Exact-type dispatch for the common buffer kinds; subclasses take
    # the isinstance fallback.
    kind = type(buffer)
    if kind is bytes:
        storage, writable = buffer, False
    elif kind is bytearray:
        storage, writable = buffer, True
    elif kind is memoryview:
        storage, writable = buffer, not buffer.readonly
    elif isinstance(buffer, (bytes, bytearray)):
        storage, writable = buffer, isinstance(buffer, bytearray)
    else:
        raise ViewError("VIEW requires a bytes-like buffer, got %r" % (buffer,))
    if offset < 0:
        raise ViewError("VIEW offset must be non-negative")
    if len(storage) - offset < layout.size:
        raise ViewError(
            "buffer too small for VIEW: need %d bytes at offset %d, have %d"
            % (layout.size, offset, len(storage) - offset))
    return TypedView(storage, writable, offset, layout)


# VIEW is a trusted kernel primitive: pure, bounded, non-blocking.  The
# paper's ephemeral handlers use it at interrupt level (Figure 2), so it
# is blessed for use inside @ephemeral procedures.
register_safe(VIEW)
