"""Logical protection domains (paper section 2).

A *logical protection domain* defines the set of interfaces an extension
may link against.  Domains are first-class kernel resources referenced by
unforgeable capabilities -- here, the Python object reference itself is
the capability; holding a :class:`Domain` object *is* holding the
capability, and there is no global registry through which an extension
could conjure one up.

An :class:`Interface` is a named bag of symbols (bound capabilities and
values).  Domains export interfaces; the dynamic linker resolves an
extension's imports against exactly one domain, failing the link for any
symbol the domain does not expose (section 2: "If an extension references
a symbol that is not contained within the logical protection domain
against which it is being linked, the link will fail").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

__all__ = ["Interface", "Domain", "DomainError", "UnresolvedSymbol"]


class DomainError(RuntimeError):
    """Raised on malformed domain/interface operations."""


class UnresolvedSymbol(KeyError):
    """Raised when a symbol cannot be resolved within a domain."""


class Interface:
    """A named set of exported symbols, e.g. ``UDP`` exporting ``Bind``."""

    def __init__(self, name: str, symbols: Optional[Dict[str, Any]] = None):
        if not name or "." in name:
            raise DomainError("interface name must be a plain identifier, got %r" % name)
        self.symbols: Dict[str, Any] = dict(symbols or {})
        for symbol_name in self.symbols:
            if "." in symbol_name:
                raise DomainError("symbol name must not be qualified: %r" % symbol_name)
        self.name = name

    def lookup(self, symbol_name: str) -> Any:
        return self.symbols[symbol_name]


class Domain:
    """A capability to a set of visible interfaces.

    Domains can be *created* and *copied* (a copy confers the same access,
    and grows independently of its original).
    """

    def __init__(self, name: str, interfaces: Iterable[Interface] = ()):
        self.name = name
        self._interfaces: Dict[str, Interface] = {}
        for interface in interfaces:
            self.export_interface(interface)

    def export_interface(self, interface: Interface) -> None:
        if interface.name in self._interfaces and \
                self._interfaces[interface.name] is not interface:
            raise DomainError(
                "domain %r already exports a different interface named %r"
                % (self.name, interface.name))
        self._interfaces[interface.name] = interface

    def copy(self, name: Optional[str] = None) -> "Domain":
        """A new capability with identical visibility."""
        clone = Domain(name or "%s-copy" % self.name)
        clone._interfaces = dict(self._interfaces)
        return clone

    def resolve(self, qualified_name: str) -> Any:
        """Resolve ``Interface.Symbol``; raise :class:`UnresolvedSymbol`."""
        if "." not in qualified_name:
            raise DomainError(
                "imports must be qualified as Interface.Symbol, got %r"
                % qualified_name)
        interface_name, _, symbol_name = qualified_name.partition(".")
        try:
            return self._interfaces[interface_name].lookup(symbol_name)
        except KeyError:
            raise UnresolvedSymbol(
                "symbol %r is not visible in logical protection domain %r"
                % (qualified_name, self.name)) from None
