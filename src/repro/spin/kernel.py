"""The SPIN kernel model: an extensible host (paper section 2).

A :class:`SpinKernel` is a :class:`~repro.hw.host.Host` carrying the SPIN
extension services:

* a :class:`~repro.spin.dispatcher.Dispatcher` (events, guards, handlers),
* a :class:`~repro.spin.linker.DynamicLinker`, which links extensions
  against the logical protection domains the protocol code builds
  (:class:`~repro.core.plexus.PlexusStack`'s app and net domains),
* an :class:`~repro.spin.mbuf.MbufPool`.

That is all a SPIN host adds to the chassis.  Interrupt handling is the
chassis's (:meth:`repro.hw.host.Host.frame_arrived`, shared with the UNIX
model: "the same network device driver"): the registered device input
runs *at interrupt level*, and everything the protocol graph does inline
from there (guards, ephemeral handlers) executes in that context, which is
exactly the low-latency path of the paper's Figure 5 "interrupt" bars;
handlers installed with ``mode="thread"`` leave the interrupt context via
a freshly spawned kernel thread (the "thread" bars).
"""

from __future__ import annotations

from ..hw.host import Host
from ..sim import Engine
from .dispatcher import Dispatcher
from .linker import DynamicLinker
from .mbuf import MbufPool

__all__ = ["SpinKernel"]


class SpinKernel(Host):
    """A host running the SPIN operating system."""

    def __init__(self, engine: Engine, name: str, **kwargs):
        super().__init__(engine, name, **kwargs)
        self.dispatcher = Dispatcher(self)
        self.linker = DynamicLinker(self)
        self.mbufs = MbufPool(self)
