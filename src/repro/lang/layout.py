"""Declarative packed record layouts -- the type vocabulary for VIEW.

The paper's VIEW operator (section 3.2) casts an array of bytes to "a
scalar type or an aggregate of scalar types".  This module provides exactly
that type universe:

* :class:`Scalar` -- fixed-width integers with an explicit byte order
  (network headers are big-endian; the predefined ``UINT16``/``UINT32``
  etc. are network order, with ``_LE`` variants for host-order fields).
* :class:`ArrayType` -- a fixed-length array of one scalar type.
* :class:`Layout` -- an ordered aggregate of named fields, each a scalar,
  array, or nested layout.  Layouts compute their size and per-field byte
  offsets at declaration time.

Layouts are *pure descriptions*; they hold no data.  ``repro.lang.view``
interprets a byte buffer through a layout without copying.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "Scalar",
    "ArrayType",
    "Layout",
    "FieldType",
    "LayoutError",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT16_LE",
    "UINT32_LE",
]


class LayoutError(TypeError):
    """Raised for malformed layout declarations."""


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


class Scalar:
    """A fixed-width integer field type.

    Decode/encode go through a precompiled :class:`struct.Struct`
    (``unpack_from``/``pack_into``), which reads and writes in place with
    no intermediate slice objects -- this is the innermost loop of every
    header field access in the stack.
    """

    def __init__(self, name: str, size: int, signed: bool = False,
                 byteorder: str = "big"):
        if size not in (1, 2, 4, 8):
            raise LayoutError("scalar size must be 1, 2, 4, or 8 bytes")
        if byteorder not in ("big", "little"):
            raise LayoutError("byteorder must be 'big' or 'little'")
        self.name = name
        self.size = size
        self.signed = signed
        self.byteorder = byteorder
        code = _STRUCT_CODES[size]
        self._struct = struct.Struct(
            ("<" if byteorder == "little" else ">")
            + (code if signed else code.upper()))
        # Bound C methods, exposed for the TypedView fast path.
        self.unpack_from = self._struct.unpack_from
        self.pack_into = self._struct.pack_into

    def decode(self, data: Union[bytes, bytearray, memoryview], offset: int) -> int:
        try:
            return self.unpack_from(data, offset)[0]
        except struct.error:
            raise LayoutError(
                "buffer too short decoding %s at offset %d" % (self.name, offset))

    def encode(self, data: Union[bytearray, memoryview], offset: int, value: int) -> None:
        try:
            self.pack_into(data, offset, value)
        except struct.error:
            # Slow path keeps the historical semantics: non-int values are
            # coerced with int(), out-of-range values raise OverflowError,
            # and a short bytearray grows via slice assignment.
            try:
                raw = int(value).to_bytes(self.size, self.byteorder,
                                          signed=self.signed)
            except OverflowError:
                raise OverflowError(
                    "value %r does not fit in %s (%d bytes, signed=%s)"
                    % (value, self.name, self.size, self.signed))
            data[offset:offset + self.size] = raw

    def __repr__(self) -> str:
        return "<Scalar %s>" % self.name


UINT8 = Scalar("uint8", 1)
UINT16 = Scalar("uint16", 2)
UINT32 = Scalar("uint32", 4)
UINT64 = Scalar("uint64", 8)
INT8 = Scalar("int8", 1, signed=True)
INT16 = Scalar("int16", 2, signed=True)
INT32 = Scalar("int32", 4, signed=True)
INT64 = Scalar("int64", 8, signed=True)
UINT16_LE = Scalar("uint16le", 2, byteorder="little")
UINT32_LE = Scalar("uint32le", 4, byteorder="little")


class ArrayType:
    """A fixed-length array of one scalar element type.

    Arrays of aggregates are intentionally unsupported: the paper restricts
    VIEW targets to scalars and aggregates of scalars, and every header
    field in the stack is covered without nested-aggregate arrays.
    """

    def __init__(self, element: Scalar, length: int):
        if not isinstance(element, Scalar):
            raise LayoutError("array element type must be a Scalar")
        if length < 1:
            raise LayoutError("array length must be >= 1")
        self.element = element
        self.length = length
        self.size = element.size * length

    def __repr__(self) -> str:
        return "<Array %s[%d]>" % (self.element.name, self.length)


FieldType = Union[Scalar, ArrayType, "Layout"]


class Layout:
    """An ordered aggregate of named fields.

    Example (the Ethernet header)::

        ETHERNET = Layout("Ethernet.T", [
            ("dst", ArrayType(UINT8, 6)),
            ("src", ArrayType(UINT8, 6)),
            ("type", UINT16),
        ])
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, FieldType]]):
        if not fields:
            raise LayoutError("layout %r must declare at least one field" % name)
        self.name = name
        self.fields: List[Tuple[str, FieldType]] = []
        self.offsets: Dict[str, int] = {}
        self.types: Dict[str, FieldType] = {}
        # Scalar-field accessor tables for the TypedView fast path:
        # field name -> (bound struct method, field offset).
        self._scalar_get: Dict[str, Tuple[Callable, int]] = {}
        self._scalar_put: Dict[str, Tuple[Callable, int]] = {}
        offset = 0
        for field_name, field_type in fields:
            if field_name in self.offsets:
                raise LayoutError(
                    "duplicate field %r in layout %r" % (field_name, name))
            if not isinstance(field_type, (Scalar, ArrayType, Layout)):
                raise LayoutError(
                    "field %r of layout %r is not a scalar, array, or layout; "
                    "VIEW targets must be aggregates of scalars (paper sec. 3.2)"
                    % (field_name, name))
            self.fields.append((field_name, field_type))
            self.offsets[field_name] = offset
            self.types[field_name] = field_type
            if isinstance(field_type, Scalar):
                self._scalar_get[field_name] = (field_type.unpack_from, offset)
                self._scalar_put[field_name] = (field_type.pack_into, offset)
            offset += field_type.size
        self.size = offset
        # Whole-record struct: when every field is a scalar of one byte
        # order (byte arrays pack as "Ns", order-neutral), the layout gets
        # ``pack_into``/``unpack_from`` covering the full record in one
        # struct call.  Header builders and parsers use this to touch all
        # fields at once instead of one VIEW access per field.
        self._whole = self._build_whole_struct()
        if self._whole is not None:
            self.pack_into = self._whole.pack_into
            self.unpack_from = self._whole.unpack_from

    def _build_whole_struct(self):
        order = None
        parts = []
        for _field_name, field_type in self.fields:
            if isinstance(field_type, Scalar):
                fmt = field_type._struct.format
                if order is None:
                    order = fmt[0]
                elif fmt[0] != order:
                    return None  # mixed byte orders: no single struct
                parts.append(fmt[1])
            elif (isinstance(field_type, ArrayType)
                    and field_type.element.size == 1
                    and not field_type.element.signed):
                parts.append("%ds" % field_type.length)
            else:
                return None  # nested layout or multi-byte array
        return struct.Struct((order or ">") + "".join(parts))

    def scalar_putter(self, field_name: str) -> Tuple[Callable, int]:
        """``(bound pack_into, byte offset)`` for one scalar field.

        Header builders use this to patch a checksum into an
        already-packed record without going back through a view.
        """
        return self._scalar_put[field_name]

    def scalar_getter(self, field_name: str) -> Tuple[Callable, int]:
        """``(bound unpack_from, byte offset)`` for one scalar field.

        Guards that test a single header field use this instead of
        constructing a full view per packet; ``getter(buf, off)[0]`` is
        the field value.
        """
        return self._scalar_get[field_name]

    def field_names(self) -> List[str]:
        return [name for name, _type in self.fields]

    def __repr__(self) -> str:
        return "<Layout %s size=%d>" % (self.name, self.size)
