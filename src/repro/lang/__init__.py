"""Modula-3 safety model for the Plexus reproduction.

This package reproduces the language-level mechanisms the paper relies on
(section 3.2-3.4): typed zero-copy VIEWs over packet bytes, READONLY
packets, and EPHEMERAL procedure verification.  READONLY needs no module
of its own: a frozen packet's ``data`` is the interpreter's read-only
memoryview, and :class:`ReadOnlyViolation` (in :mod:`.view`) is what the
packet's mutators and a VIEW write raise.
"""

from .ephemeral import (
    EphemeralViolation,
    SAFE_BUILTINS,
    ephemeral,
    is_blocking,
    is_ephemeral,
    may_block,
    register_safe,
)
from .layout import (
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT16_LE,
    UINT32,
    UINT32_LE,
    UINT64,
    ArrayType,
    FieldType,
    Layout,
    LayoutError,
    Scalar,
)
from .view import VIEW, ArrayView, ReadOnlyViolation, TypedView, ViewError

__all__ = [
    "ArrayType",
    "ArrayView",
    "EphemeralViolation",
    "FieldType",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "Layout",
    "LayoutError",
    "ReadOnlyViolation",
    "SAFE_BUILTINS",
    "Scalar",
    "TypedView",
    "UINT8",
    "UINT16",
    "UINT16_LE",
    "UINT32",
    "UINT32_LE",
    "UINT64",
    "VIEW",
    "ViewError",
    "ephemeral",
    "is_blocking",
    "is_ephemeral",
    "may_block",
    "register_safe",
]
