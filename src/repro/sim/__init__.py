"""Discrete-event simulation kernel for the Plexus reproduction.

Public surface::

    from repro.sim import Engine, Event, Timeout, Process
    from repro.sim import Resource, Signal
"""

from .engine import (
    Engine,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Resource, ResourceRequest, Signal

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Resource",
    "ResourceRequest",
    "Signal",
    "SimulationError",
    "Timeout",
]
