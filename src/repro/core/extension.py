"""Application extensions: the one way an application enters the kernel.

An application-specific protocol in Plexus is a *credential* (the
principal), a *signed extension* (imports + init) and a *link* against a
logical protection domain (paper section 2, Figure 2), bundled by
:class:`AppExtension`.  A section 5 app is a class declaring ``NAME`` and
``IMPORTS``, built as ``app(env, credential, ...)`` by
:meth:`AppExtension.link`; its removal is the linker's unlink.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..spin.linker import DynamicLinker, Extension, LinkedExtension, compile_extension
from .manager import Credential

__all__ = ["AppExtension"]


class AppExtension:
    """One application's protocol extension: ``init(env, credential)`` gets
    the resolved imports and returns what it installed (for unlink)."""

    def __init__(self, name: str, imports: List[str],
                 init: Callable[[Dict[str, Any], Credential], Any],
                 privileged: bool = False):
        self.credential = Credential(name, privileged=privileged)

        def bound_init(env: Dict[str, Any]) -> Any:
            return init(env, self.credential)

        self.extension: Extension = compile_extension(name, imports, bound_init)
        self.linked: Optional[LinkedExtension] = None
        self._linker: Optional[DynamicLinker] = None

    @classmethod
    def link(cls, app: type, host, domain, *args: Any,
             name: Optional[str] = None, privileged: bool = False,
             **kwargs: Any) -> "AppExtension":
        """Link app class ``app`` (named ``name`` or ``app.NAME``, importing
        ``app.IMPORTS``) into ``host`` against ``domain``; its init builds
        ``app(env, credential, *args, **kwargs)``, which :attr:`state` holds."""
        extension = cls(name or app.NAME, app.IMPORTS,
                        lambda env, credential: app(env, credential, *args, **kwargs),
                        privileged)
        extension.install(host, domain)
        return extension

    def install(self, host, domain) -> LinkedExtension:
        """Link into ``host`` (through its linker) against ``domain``."""
        if self.linked is not None and not self.linked.unlinked:
            raise RuntimeError("extension %r is already installed" % self.extension.name)
        self.linked = host.linker.link(self.extension, domain)
        self._linker = host.linker
        return self.linked

    def uninstall(self) -> None:
        """Unlink: everything the init installed is uninstalled."""
        self._linker.unlink(self.linked)

    @property
    def state(self) -> Any:
        """Whatever the init returned (for :meth:`link`, the app)."""
        return self.linked.installed_state
