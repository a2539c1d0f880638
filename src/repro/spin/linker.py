"""SPIN's dynamic linker (paper section 2; Sirer et al. 1996).

Extensions arrive as "partially resolved object files that have been
signed by our Modula-3 compiler".  The reproduction models this as:

* :func:`compile_extension` -- the trusted "compiler": takes the
  extension's declared imports and its init procedure, and *signs* the
  result (an HMAC-style digest over the extension's identity with a key
  only this module holds).
* :class:`DynamicLinker` -- verifies the signature, resolves every import
  against the target :class:`~repro.spin.domain.Domain`, and either
  rejects the extension with :class:`LinkError` or runs its init with an
  environment mapping each imported name to the resolved symbol, and
  records a :class:`LinkedExtension`.

Unlinking is supported: a linked extension records what its init
installed (the objects it returned, each removable by ``uninstall()``), so
:meth:`DynamicLinker.unlink` can remove it from a running system -- the
paper's *runtime adaptation* property.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Callable, Dict, Iterable, List, Optional

from .domain import Domain, UnresolvedSymbol

__all__ = ["Extension", "LinkedExtension", "DynamicLinker", "LinkError",
           "compile_extension"]

# The "compiler's" signing key.  In SPIN the analogous trust anchor is the
# Modula-3 compiler's signature on the object file; only code signed by the
# trusted compiler may be linked.
_SIGNING_KEY = b"spin-modula3-compiler-release-3.5.2"


class LinkError(RuntimeError):
    """Raised when an extension cannot be safely linked."""


def _digest(name: str, imports: Iterable[str], init: Callable) -> str:
    material = "%s|%s|%s" % (name, ",".join(sorted(imports)),
                             getattr(init, "__qualname__", repr(init)))
    return hmac.new(_SIGNING_KEY, material.encode(), hashlib.sha256).hexdigest()


class Extension:
    """A compiled-but-unlinked extension ("partially resolved object file").

    ``init`` is the extension's body: a callable receiving an environment
    dict that maps each qualified import name to the resolved object.
    Whatever ``init`` returns is kept as the extension's installed state:
    None, one object, or a list of them, each with an ``uninstall()``
    that unlink calls.
    """

    def __init__(self, name: str, imports: List[str], init: Callable[[Dict[str, Any]], Any],
                 signature: Optional[str] = None):
        self.name = name
        self.imports = list(imports)
        self.init = init
        self.signature = signature


def compile_extension(name: str, imports: List[str],
                      init: Callable[[Dict[str, Any]], Any]) -> Extension:
    """The trusted compiler: produce a *signed* extension."""
    extension = Extension(name, imports, init)
    extension.signature = _digest(name, extension.imports, init)
    return extension


def _installed(state: Any) -> List[Any]:
    """The objects an init's return value (None, one, or a list) names."""
    if state is None:
        return []
    return list(state) if isinstance(state, (list, tuple)) else [state]


class LinkedExtension:
    """An extension resolved against a domain and initialized."""

    def __init__(self, extension: Extension, state: Any):
        self.extension = extension
        self.installed_state = state
        self.unlinked = False


class DynamicLinker:
    """Links signed extensions into logical protection domains."""

    def __init__(self, host=None):
        self.host = host
        self.linked: List[LinkedExtension] = []
        self.rejected_count = 0

    def link(self, extension: Extension, domain: Domain) -> LinkedExtension:
        """Verify, resolve, and initialize ``extension`` against ``domain``.

        Raises :class:`LinkError` when the signature is missing/invalid or
        any import is not visible in the domain (before ``init`` runs), and
        when ``init`` returns an object without ``uninstall()`` (after
        uninstalling what it returned that has one).
        """
        expected = _digest(extension.name, extension.imports, extension.init)
        if extension.signature != expected:
            self.rejected_count += 1
            raise LinkError(
                "extension %r is not signed by the trusted compiler; refusing "
                "to link (paper sec. 2)" % extension.name)

        environment: Dict[str, Any] = {}
        missing: List[str] = []
        for qualified in extension.imports:
            try:
                environment[qualified] = domain.resolve(qualified)
            except UnresolvedSymbol:
                missing.append(qualified)
        if missing:
            self.rejected_count += 1
            raise LinkError(
                "link of extension %r against domain %r failed; unresolved "
                "symbols: %s" % (extension.name, domain.name, ", ".join(missing)))

        if self.host is not None:  # symbol resolution: lookups per import
            costs = self.host.costs
            self.host.cpu.try_charge(costs.link_extension + costs.link_per_import
                                     * len(extension.imports), "linker")
        state = extension.init(environment)
        installed = _installed(state)
        stray = [obj for obj in installed
                 if not callable(getattr(obj, "uninstall", None))]
        if stray:
            for obj in installed:
                if callable(getattr(obj, "uninstall", None)):
                    obj.uninstall()
            self.rejected_count += 1
            raise LinkError(
                "extension %r installed %s, which has no uninstall(); unlink "
                "could not remove it" % (extension.name, stray[0]))
        linked = LinkedExtension(extension, state)
        self.linked.append(linked)
        return linked

    def unlink(self, linked: LinkedExtension) -> None:
        """Remove a linked extension from the running system.

        Uninstalls everything the extension's init returned, then drops
        the extension.
        """
        if linked.unlinked:
            raise LinkError("extension %r already unlinked"
                            % linked.extension.name)
        for obj in _installed(linked.installed_state):
            obj.uninstall()
        if self.host is not None:
            self.host.cpu.try_charge(self.host.costs.unlink_extension, "linker")
        linked.unlinked = True
        self.linked.remove(linked)
